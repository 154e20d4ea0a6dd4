(* Bindings live in slots [0, capacity]: one more than the capacity,
   because [put] links the new binding before it evicts. Recency is a
   doubly-linked list threaded through int arrays, so touching a
   resident binding stores only ints — no option box for the minor GC
   to promote into a long-lived node. Free slots chain through [next].
   A freed slot keeps its stale value until reused, so at most
   [capacity + 1] values stay reachable, as in a full cache. *)

let none = -1

type 'a t = {
  capacity : int;
  table : (int, int) Hashtbl.t;  (** key -> slot *)
  keys : int array;
  mutable values : 'a array;  (** empty until the first [put] *)
  prev : int array;
  next : int array;
  mutable head : int;  (** most recently used, or [none] *)
  mutable tail : int;  (** least recently used, or [none] *)
  mutable free : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Lru.create: capacity must be positive";
  let slots = capacity + 1 in
  {
    capacity;
    table = Hashtbl.create (2 * capacity);
    keys = Array.make slots 0;
    values = [||];
    prev = Array.make slots none;
    next = Array.init slots (fun i -> if i + 1 < slots then i + 1 else none);
    head = none;
    tail = none;
    free = 0;
  }

let capacity t = t.capacity
let length t = Hashtbl.length t.table

let unlink t s =
  let p = t.prev.(s) and n = t.next.(s) in
  if p = none then t.head <- n else t.next.(p) <- n;
  if n = none then t.tail <- p else t.prev.(n) <- p

let push_front t s =
  t.prev.(s) <- none;
  t.next.(s) <- t.head;
  if t.head = none then t.tail <- s else t.prev.(t.head) <- s;
  t.head <- s

let release t s =
  Hashtbl.remove t.table t.keys.(s);
  t.next.(s) <- t.free;
  t.free <- s

let find t key =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some s ->
      if t.head <> s then begin
        unlink t s;
        push_front t s
      end;
      Some t.values.(s)

let mem t key = Hashtbl.mem t.table key

let remove t key =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some s ->
      unlink t s;
      release t s;
      Some t.values.(s)

let put t key value ~on_evict =
  (match Hashtbl.find_opt t.table key with
  | Some s ->
      t.values.(s) <- value;
      if t.head <> s then begin
        unlink t s;
        push_front t s
      end
  | None ->
      if Array.length t.values = 0 then t.values <- Array.make (t.capacity + 1) value;
      let s = t.free in
      t.free <- t.next.(s);
      t.keys.(s) <- key;
      t.values.(s) <- value;
      Hashtbl.add t.table key s;
      push_front t s);
  if Hashtbl.length t.table > t.capacity then begin
    let s = t.tail in
    unlink t s;
    release t s;
    on_evict t.keys.(s) t.values.(s)
  end

let iter t f =
  let rec go s =
    if s <> none then begin
      let next = t.next.(s) in
      f t.keys.(s) t.values.(s);
      go next
    end
  in
  go t.head
