open Segdb_io
open Segdb_geom
module Pst = Segdb_pst.Pst
module Itree = Segdb_itree.Interval_tree

type node =
  | Leaf of Segment.t array
  | Node of {
      xb : float; (* the base line bl(v) *)
      c : Itree.t option; (* segments lying on bl(v) *)
      l : Pst.t; (* left parts of segments crossing bl(v) *)
      r : Pst.t; (* right parts *)
      left : Block_store.addr;
      right : Block_store.addr;
      size : int; (* segments in this subtree *)
    }

module Store = Block_store.Make (struct
  type t = node
end)

type t = {
  store : Store.t;
  cfg : Vs_index.config;
  by_id : (int, Segment.t) Hashtbl.t;
      (* materialization table: fragments carry ids; a real system would
         store the full segment as the fragment's payload, so lookups
         here are not charged as I/O *)
  mutable root : Block_store.addr;
  mutable size : int;
  mutable deletes : int; (* since the last global rebuild *)
}

let name = "solution1"

let on_line xb (s : Segment.t) = Segment.is_vertical s && s.x1 = xb

let crosses_line xb (s : Segment.t) = Segment.spans_x s xb && not (on_line xb s)

let median_endpoint_x segs =
  let xs = Array.make (2 * Array.length segs) 0.0 in
  Array.iteri
    (fun i (s : Segment.t) ->
      xs.(2 * i) <- s.x1;
      xs.((2 * i) + 1) <- s.x2)
    segs;
  Array.sort compare xs;
  xs.(Array.length xs / 2)

let build_pst t lsegs =
  Pst.blocked ~node_capacity:t.cfg.block ~pool:t.cfg.pool ~stats:t.cfg.stats
    (Array.of_list lsegs)

let build_itree t ivls =
  Itree.build ~leaf_capacity:t.cfg.block ~pool:t.cfg.pool ~stats:t.cfg.stats
    (Array.of_list ivls)

let ivl_of (s : Segment.t) = { Itree.lo = Segment.min_y s; hi = Segment.max_y s; seg = s }

let rec build_node t (segs : Segment.t array) : Block_store.addr =
  let n = Array.length segs in
  if n = 0 then Block_store.null
  else if n <= t.cfg.block then Store.alloc t.store (Leaf segs)
  else begin
    let xb = median_endpoint_x segs in
    let cs = ref [] and ls = ref [] and rs = ref [] in
    let lefts = ref [] and rights = ref [] in
    let stored = ref 0 in
    Array.iter
      (fun (s : Segment.t) ->
        if on_line xb s then begin
          cs := ivl_of s :: !cs;
          incr stored
        end
        else if crosses_line xb s then begin
          ls := Lseg.left_of_vline ~base_x:xb s :: !ls;
          rs := Lseg.right_of_vline ~base_x:xb s :: !rs;
          incr stored
        end
        else if s.x2 < xb then lefts := s :: !lefts
        else rights := s :: !rights)
      segs;
    if !stored = 0 && (!lefts = [] || !rights = []) then
      (* no separation progress: degenerate distribution, oversized leaf *)
      Store.alloc t.store (Leaf segs)
    else begin
      let c = if !cs = [] then None else Some (build_itree t !cs) in
      let l = build_pst t !ls and r = build_pst t !rs in
      let left = build_node t (Array.of_list (List.rev !lefts)) in
      let right = build_node t (Array.of_list (List.rev !rights)) in
      Store.alloc t.store (Node { xb; c; l; r; left; right; size = n })
    end
  end

let build (cfg : Vs_index.config) segs =
  let store = Store.create ~name:"sol1" ~pool:cfg.pool ~stats:cfg.stats () in
  let t =
    { store; cfg; by_id = Hashtbl.create 1024; root = Block_store.null; size = 0; deletes = 0 }
  in
  Array.iter (fun (s : Segment.t) -> Hashtbl.replace t.by_id s.id s) segs;
  if Hashtbl.length t.by_id <> Array.length segs then
    invalid_arg "Solution1.build: duplicate segment ids";
  t.root <- build_node t (Array.copy segs);
  t.size <- Array.length segs;
  t

(* ---------------- query ---------------- *)

let query t (q : Vquery.t) ~f =
  Probe.span t.cfg.stats "sol1.descent" @@ fun () ->
  let seen = Hashtbl.create 16 in
  let emit id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      f (Hashtbl.find t.by_id id)
    end
  in
  let emit_lseg (ls : Lseg.t) = emit ls.Lseg.id in
  let rec go addr =
    if addr <> Block_store.null then
      match Store.read t.store addr with
      | Leaf segs ->
          Array.iter (fun (s : Segment.t) -> if Vquery.matches q s then emit s.id) segs
      | Node n ->
          if q.x = n.xb then begin
            (match n.c with
            | Some c -> Itree.overlap c ~lo:q.ylo ~hi:q.yhi ~f:(fun iv -> emit iv.seg.Segment.id)
            | None -> ());
            let lq = Lseg.query ~uq:0.0 ~vlo:q.ylo ~vhi:q.yhi in
            Pst.query n.l lq ~f:emit_lseg;
            Pst.query n.r lq ~f:emit_lseg
            (* all segments touching the base line live here: stop *)
          end
          else if q.x < n.xb then begin
            Pst.query n.l (Lseg.query ~uq:(n.xb -. q.x) ~vlo:q.ylo ~vhi:q.yhi) ~f:emit_lseg;
            go n.left
          end
          else begin
            Pst.query n.r (Lseg.query ~uq:(q.x -. n.xb) ~vlo:q.ylo ~vhi:q.yhi) ~f:emit_lseg;
            go n.right
          end
  in
  go t.root

let iter_all t ~f = Hashtbl.iter (fun _ s -> f s) t.by_id

(* ---------------- insertion ---------------- *)

let node_size t addr =
  if addr = Block_store.null then 0
  else match Store.read t.store addr with Leaf s -> Array.length s | Node n -> n.size

(* BB[alpha]-style scapegoat criterion, as in the PSTs. *)
let needs_rebuild t ~child_size ~subtree_size =
  subtree_size > 4 * t.cfg.block && 4 * (child_size + 1) > 3 * (subtree_size + 1)

let rec collect t addr seen acc =
  if addr <> Block_store.null then begin
    (match Store.read t.store addr with
    | Leaf segs ->
        Array.iter
          (fun (s : Segment.t) ->
            if not (Hashtbl.mem seen s.id) then begin
              Hashtbl.add seen s.id ();
              acc := s :: !acc
            end)
          segs
    | Node n ->
        (match n.c with
        | Some c ->
            Itree.iter c (fun iv ->
                let s = iv.Itree.seg in
                if not (Hashtbl.mem seen s.Segment.id) then begin
                  Hashtbl.add seen s.Segment.id ();
                  acc := s :: !acc
                end)
        | None -> ());
        Pst.iter n.l (fun ls ->
            let id = ls.Lseg.id in
            if not (Hashtbl.mem seen id) then begin
              Hashtbl.add seen id ();
              acc := Hashtbl.find t.by_id id :: !acc
            end);
        (* right parts mirror left parts: already collected *)
        collect t n.left seen acc;
        collect t n.right seen acc);
    Store.free t.store addr
  end

let rebuild_subtree t addr =
  let acc = ref [] in
  collect t addr (Hashtbl.create 64) acc;
  build_node t (Array.of_list !acc)

let rec insert_rec t addr (s : Segment.t) : Block_store.addr =
  if addr = Block_store.null then Store.alloc t.store (Leaf [| s |])
  else
    match Store.read t.store addr with
    | Leaf segs ->
        let segs = Array.append segs [| s |] in
        if Array.length segs <= t.cfg.block then begin
          Store.write t.store addr (Leaf segs);
          addr
        end
        else begin
          Store.free t.store addr;
          build_node t segs
        end
    | Node n ->
        if on_line n.xb s then begin
          let c =
            match n.c with
            | Some c -> c
            | None -> build_itree t []
          in
          Itree.insert c (ivl_of s);
          Store.write t.store addr (Node { n with c = Some c; size = n.size + 1 });
          addr
        end
        else if crosses_line n.xb s then begin
          Pst.insert n.l (Lseg.left_of_vline ~base_x:n.xb s);
          Pst.insert n.r (Lseg.right_of_vline ~base_x:n.xb s);
          Store.write t.store addr (Node { n with size = n.size + 1 });
          addr
        end
        else begin
          let go_left = s.x2 < n.xb in
          let kid = if go_left then n.left else n.right in
          let kid = insert_rec t kid s in
          let kid =
            if needs_rebuild t ~child_size:(node_size t kid) ~subtree_size:(n.size + 1) then
              rebuild_subtree t kid
            else kid
          in
          (if go_left then Store.write t.store addr (Node { n with left = kid; size = n.size + 1 })
           else Store.write t.store addr (Node { n with right = kid; size = n.size + 1 }));
          addr
        end

let insert t s =
  if Hashtbl.mem t.by_id s.Segment.id then invalid_arg "Solution1.insert: duplicate id";
  Hashtbl.replace t.by_id s.Segment.id s;
  t.size <- t.size + 1;
  t.root <- insert_rec t t.root s

(* ---------------- deletion ---------------- *)

let rec free_tree t addr =
  if addr <> Block_store.null then begin
    (match Store.read t.store addr with
    | Leaf _ -> ()
    | Node n ->
        free_tree t n.left;
        free_tree t n.right);
    Store.free t.store addr
  end

let rec delete_rec t addr (s : Segment.t) : bool =
  if addr = Block_store.null then false
  else
    match Store.read t.store addr with
    | Leaf segs -> (
        match Array.find_index (fun c -> Segment.equal c s) segs with
        | Some i ->
            let out = Array.make (Array.length segs - 1) s in
            Array.blit segs 0 out 0 i;
            Array.blit segs (i + 1) out i (Array.length segs - 1 - i);
            Store.write t.store addr (Leaf out);
            true
        | None -> false)
    | Node n ->
        if on_line n.xb s then begin
          match n.c with
          | Some c ->
              let present =
                Itree.delete c { Itree.lo = Segment.min_y s; hi = Segment.max_y s; seg = s }
              in
              if present then Store.write t.store addr (Node { n with size = n.size - 1 });
              present
          | None -> false
        end
        else if crosses_line n.xb s then begin
          let dl = Pst.delete n.l (Lseg.left_of_vline ~base_x:n.xb s) in
          let dr = Pst.delete n.r (Lseg.right_of_vline ~base_x:n.xb s) in
          if dl <> dr then invalid_arg "Solution1.delete: inconsistent halves";
          if dl then Store.write t.store addr (Node { n with size = n.size - 1 });
          dl
        end
        else begin
          let go_left = s.x2 < n.xb in
          let present = delete_rec t (if go_left then n.left else n.right) s in
          if present then Store.write t.store addr (Node { n with size = n.size - 1 });
          present
        end

let delete t (s : Segment.t) =
  match Hashtbl.find_opt t.by_id s.Segment.id with
  | Some stored when Segment.equal stored s ->
      let present = delete_rec t t.root s in
      if present then begin
        Hashtbl.remove t.by_id s.Segment.id;
        t.size <- t.size - 1;
        t.deletes <- t.deletes + 1;
        (* halving rebuild keeps weight balance under deletion *)
        if t.deletes > t.size + t.cfg.block then begin
          let segs = Array.of_seq (Hashtbl.to_seq_values t.by_id) in
          free_tree t t.root;
          t.root <- build_node t segs;
          t.deletes <- 0
        end
      end;
      present
  | _ -> false

(* ---------------- metrics / invariants ---------------- *)

let size t = t.size

let rec blocks_rec t addr =
  if addr = Block_store.null then 0
  else
    match Store.read t.store addr with
    | Leaf _ -> 1
    | Node n ->
        1
        + (match n.c with Some c -> Itree.block_count c | None -> 0)
        + Pst.block_count n.l + Pst.block_count n.r
        + blocks_rec t n.left + blocks_rec t n.right

let block_count t = blocks_rec t t.root

let check_invariants t =
  let ok = ref true in
  let fail () = ok := false in
  let seen = Hashtbl.create 64 in
  let rec go addr ~lo ~hi =
    if addr = Block_store.null then 0
    else
      match Store.read t.store addr with
      | Leaf segs ->
          Array.iter
            (fun (s : Segment.t) ->
              if Hashtbl.mem seen s.id then fail () else Hashtbl.add seen s.id ();
              (match lo with Some b -> if s.x1 <= b then fail () | None -> ());
              match hi with Some b -> if s.x2 >= b then fail () | None -> ())
            segs;
          Array.length segs
      | Node n ->
          (match lo with Some b -> if n.xb <= b then fail () | None -> ());
          (match hi with Some b -> if n.xb >= b then fail () | None -> ());
          let stored = ref 0 in
          (match n.c with
          | Some c ->
              Itree.iter c (fun iv ->
                  incr stored;
                  let s = iv.Itree.seg in
                  if Hashtbl.mem seen s.Segment.id then fail ()
                  else Hashtbl.add seen s.Segment.id ();
                  if not (on_line n.xb s) then fail ())
          | None -> ());
          if not (Pst.check_invariants n.l && Pst.check_invariants n.r) then fail ();
          if Pst.size n.l <> Pst.size n.r then fail ();
          Pst.iter n.l (fun ls ->
              incr stored;
              let id = ls.Lseg.id in
              if Hashtbl.mem seen id then fail () else Hashtbl.add seen id ();
              let s = Hashtbl.find t.by_id id in
              if not (crosses_line n.xb s) then fail ());
          let nl = go n.left ~lo ~hi:(Some n.xb) in
          let nr = go n.right ~lo:(Some n.xb) ~hi in
          if !stored + nl + nr <> n.size then fail ();
          n.size
  in
  let total = go t.root ~lo:None ~hi:None in
  if total <> t.size then fail ();
  !ok
