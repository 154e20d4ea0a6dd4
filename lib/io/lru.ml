type 'a node = {
  key : int;
  mutable value : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
}

type 'a t = {
  capacity : int;
  table : (int, 'a node) Hashtbl.t;
  mutable head : 'a node option; (* most recently used *)
  mutable tail : 'a node option; (* least recently used *)
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Lru.create: capacity must be positive";
  {
    capacity;
    table = Hashtbl.create (2 * capacity);
    head = None;
    tail = None;
  }

let capacity t = t.capacity
let length t = Hashtbl.length t.table

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let find t key =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some node ->
      unlink t node;
      push_front t node;
      Some node.value

let mem t key = Hashtbl.mem t.table key

let remove t key =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some node ->
      unlink t node;
      Hashtbl.remove t.table key;
      Some node.value

let put t key value ~on_evict =
  (match Hashtbl.find_opt t.table key with
  | Some node ->
      node.value <- value;
      unlink t node;
      push_front t node
  | None ->
      let node = { key; value; prev = None; next = None } in
      Hashtbl.add t.table key node;
      push_front t node);
  if Hashtbl.length t.table > t.capacity then
    match t.tail with
    | None -> assert false
    | Some lru ->
        unlink t lru;
        Hashtbl.remove t.table lru.key;
        on_evict lru.key lru.value

let iter t f =
  let rec go = function
    | None -> ()
    | Some node ->
        let next = node.next in
        f node.key node.value;
        go next
  in
  go t.head
