(* [next] counts pushes since the last clear; once the ring is full,
   slot [next mod capacity] holds the oldest element. *)
type 'a t = { mutable slots : 'a option array; mutable next : int }

let create n =
  if n < 0 then invalid_arg "Ring.create: negative capacity";
  { slots = Array.make n None; next = 0 }

let push t x =
  let slots = t.slots in
  let n = Array.length slots in
  if n > 0 then begin
    slots.(t.next mod n) <- Some x;
    t.next <- t.next + 1
  end

let to_list t =
  let slots = t.slots and next = t.next in
  let n = Array.length slots in
  let acc = ref [] in
  for k = n - 1 downto 0 do
    match slots.((next + k) mod n) with Some x -> acc := x :: !acc | None -> ()
  done;
  !acc

let clear t =
  Array.fill t.slots 0 (Array.length t.slots) None;
  t.next <- 0

let resize t n =
  if n < 0 then invalid_arg "Ring.resize: negative capacity";
  let kept = to_list t in
  let drop = List.length kept - n in
  t.slots <- Array.make n None;
  t.next <- 0;
  List.iteri (fun i x -> if i >= drop then push t x) kept
