open Segdb_io
open Segdb_geom

module Store = Block_store.Make (struct
  type t = Segment.t array
end)

type t = {
  store : Store.t;
  block : int;
  mutable blocks : Block_store.addr list; (* most recent first *)
  mutable size : int;
}

let name = "naive-scan"

let build (cfg : Vs_index.config) segs =
  let store = Store.create ~name:"naive" ~pool:cfg.pool ~stats:cfg.stats () in
  let t = { store; block = cfg.block; blocks = []; size = Array.length segs } in
  let n = Array.length segs in
  let i = ref 0 in
  while !i < n do
    let len = min t.block (n - !i) in
    t.blocks <- Store.alloc store (Array.sub segs !i len) :: t.blocks;
    i := !i + len
  done;
  t

let insert t s =
  t.size <- t.size + 1;
  match t.blocks with
  | a :: _ when Array.length (Store.read t.store a) < t.block ->
      Store.write t.store a (Array.append (Store.read t.store a) [| s |])
  | _ -> t.blocks <- Store.alloc t.store [| s |] :: t.blocks

let delete t (s : Segment.t) =
  let found = ref false in
  List.iter
    (fun a ->
      if not !found then begin
        let segs = Store.read t.store a in
        match Array.find_index (fun c -> Segment.equal c s) segs with
        | Some i ->
            let out = Array.make (Array.length segs - 1) s in
            Array.blit segs 0 out 0 i;
            Array.blit segs (i + 1) out i (Array.length segs - 1 - i);
            Store.write t.store a out;
            found := true
        | None -> ()
      end)
    t.blocks;
  if !found then t.size <- t.size - 1;
  !found

let query t q ~f =
  List.iter
    (fun a ->
      Array.iter (fun (s : Segment.t) -> if Vquery.matches q s then f s.id) (Store.read t.store a))
    t.blocks

let size t = t.size
let block_count t = Store.block_count t.store
let check_invariants _ = true
