open Segdb_io
open Segdb_geom
module Pst = Segdb_pst.Pst
module Itree = Segdb_itree.Interval_tree
module G = Segdb_segtree.Slab_segment_tree

module type SHAPE = sig
  val name : string
  val tag : string
  val fanout : block:int -> int
end

(* first boundary index >= x, or length if none *)
let lower_boundary boundaries x =
  let lo = ref 0 and hi = ref (Array.length boundaries) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if boundaries.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* number of boundaries <= x: the slab index *)
let slab_of boundaries x =
  let lo = ref 0 and hi = ref (Array.length boundaries) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if boundaries.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

(* Crossed boundary range of a segment: [Some (f, l)] when at least one
   boundary lies within its closed x-extent. *)
let crossed boundaries (s : Segment.t) =
  let m = Array.length boundaries in
  let f = lower_boundary boundaries s.x1 in
  if f >= m || boundaries.(f) > s.x2 then None
  else begin
    let l = slab_of boundaries s.x2 - 1 in
    Some (f, l)
  end

let on_boundary boundaries (s : Segment.t) =
  if not (Segment.is_vertical s) then None
  else begin
    let f = lower_boundary boundaries s.x1 in
    if f < Array.length boundaries && boundaries.(f) = s.x1 then Some f else None
  end

let ivl_of (s : Segment.t) = { Itree.lo = Segment.min_y s; hi = Segment.max_y s; seg = s }

(* Quantile slab boundaries over endpoint abscissas, deduplicated. At
   fan-out 2 this is the median endpoint: Solution 1's base line. *)
let quantile_boundaries fanout segs =
  let xs = Array.make (2 * Array.length segs) 0.0 in
  Array.iteri
    (fun i (s : Segment.t) ->
      xs.(2 * i) <- s.x1;
      xs.((2 * i) + 1) <- s.x2)
    segs;
  Array.sort compare xs;
  let m = Array.length xs in
  let raw = List.init (fanout - 1) (fun i -> xs.(min ((i + 1) * m / fanout) (m - 1))) in
  Array.of_list (List.sort_uniq compare raw)

module Make (S : SHAPE) = struct
  type node =
    | Leaf of Segment.t array
    | Node of {
        boundaries : float array; (* m >= 1 slab boundaries, ascending *)
        cs : Itree.t option array; (* per boundary: collinear segments *)
        ls : Pst.t array; (* per boundary: short fragments to its left *)
        rs : Pst.t array; (* per boundary: short fragments to its right *)
        g : G.t option; (* long fragments; None when m < 2 *)
        kids : Block_store.addr array; (* m + 1 slabs *)
        size : int;
      }

  module Store = Block_store.Make (struct
    type t = node
  end)

  type t = {
    store : Store.t;
    cfg : Vs_index.config;
    fanout : int; (* the paper's b *)
    by_id : (int, Segment.t) Hashtbl.t;
        (* the rebuild source: PST entries and G fragments carry only
           their part of a segment, so rebuilds, deletes and invariant
           checks find the whole one here; lookups are not charged as
           I/O. Queries report ids and never read it. *)
    mutable root : Block_store.addr;
    mutable size : int;
    mutable deletes : int; (* since the last global rebuild *)
  }

  let name = S.name
  let descent = S.tag ^ ".descent"

  let build_pst t lsegs =
    Pst.blocked ~node_capacity:t.cfg.block ~pool:t.cfg.pool ~stats:t.cfg.stats
      (Array.of_list lsegs)

  let build_itree t ivls =
    Itree.build ~leaf_capacity:t.cfg.block ~pool:t.cfg.pool ~stats:t.cfg.stats
      (Array.of_list ivls)

  let rec build_node t (segs : Segment.t array) : Block_store.addr =
    let n = Array.length segs in
    if n = 0 then Block_store.null
    else if n <= t.cfg.block then Store.alloc t.store (Leaf segs)
    else begin
      let boundaries = quantile_boundaries t.fanout segs in
      let m = Array.length boundaries in
      if m = 0 then Store.alloc t.store (Leaf segs)
      else begin
        let cs_acc = Array.make m [] in
        let ls_acc = Array.make m [] and rs_acc = Array.make m [] in
        let longs = ref [] in
        let below = Array.make (m + 1) [] in
        let stored = ref 0 in
        Array.iter
          (fun (s : Segment.t) ->
            match on_boundary boundaries s with
            | Some i ->
                cs_acc.(i) <- ivl_of s :: cs_acc.(i);
                incr stored
            | None -> (
                match crossed boundaries s with
                | Some (f, l) ->
                    ls_acc.(f) <- Lseg.left_of_vline ~base_x:boundaries.(f) s :: ls_acc.(f);
                    rs_acc.(l) <- Lseg.right_of_vline ~base_x:boundaries.(l) s :: rs_acc.(l);
                    if f < l then begin
                      match Segment.clip_x s boundaries.(f) boundaries.(l) with
                      | Some frag -> longs := frag :: !longs
                      | None -> assert false
                    end;
                    incr stored
                | None ->
                    let k = slab_of boundaries s.x1 in
                    below.(k) <- s :: below.(k)))
          segs;
        if !stored = 0 && Array.exists (fun l -> List.length l = n) below then
          (* no separation progress: degenerate distribution, oversized leaf *)
          Store.alloc t.store (Leaf segs)
        else begin
          let cs =
            Array.map (fun acc -> if acc = [] then None else Some (build_itree t acc)) cs_acc
          in
          let ls = Array.map (build_pst t) ls_acc and rs = Array.map (build_pst t) rs_acc in
          let g =
            if m >= 2 then
              Some
                (G.build ~cascade:t.cfg.cascade ~list_block:t.cfg.block ~pool:t.cfg.pool
                   ~stats:t.cfg.stats ~boundaries
                   (Array.of_list !longs))
            else begin
              assert (!longs = []);
              None
            end
          in
          let kids = Array.map (fun l -> build_node t (Array.of_list (List.rev l))) below in
          Store.alloc t.store (Node { boundaries; cs; ls; rs; g; kids; size = n })
        end
      end
    end

  let build (cfg : Vs_index.config) segs =
    let store = Store.create ~name:S.tag ~pool:cfg.pool ~stats:cfg.stats () in
    let t =
      {
        store;
        cfg;
        fanout = S.fanout ~block:cfg.block;
        by_id = Hashtbl.create 1024;
        root = Block_store.null;
        size = 0;
        deletes = 0;
      }
    in
    Array.iter (fun (s : Segment.t) -> Hashtbl.replace t.by_id s.id s) segs;
    if Hashtbl.length t.by_id <> Array.length segs then
      invalid_arg (name ^ ".build: duplicate segment ids");
    t.root <- build_node t (Array.copy segs);
    t.size <- Array.length segs;
    t

  (* ---------------- query ---------------- *)

  (* Each segment is reported by one source, without a table. A segment
     stored here with first and last crossed boundaries f <= l sits in
     [L_f], in [R_l] and, when f < l, in [G] over [b_f, b_l]. Inside slab
     k, [L_k] holds those with f = k, [R_(k-1)] those with l = k - 1, [G]
     those with f < k <= l and the kid those crossing no boundary:
     disjoint. On boundary i, [C_i] holds the segments lying on it and
     every other one touching it has f <= i <= l: [L_i] reports those
     with f = i and [G]'s fragments starting left of it those with
     f < i, so [R_i] would only repeat them. *)
  let query t (q : Vquery.t) ~f =
    Probe.span t.cfg.stats descent @@ fun () ->
    let emit_lseg (ls : Lseg.t) = f ls.Lseg.id in
    let emit_frag (s : Segment.t) = f s.id in
    let emit_frag_left (s : Segment.t) = if s.x1 < q.x then f s.id in
    let rec go addr =
      if addr <> Block_store.null then
        match Store.read t.store addr with
        | Leaf segs ->
            Array.iter (fun (s : Segment.t) -> if Vquery.matches q s then f s.id) segs
        | Node n ->
            let m = Array.length n.boundaries in
            let k = slab_of n.boundaries q.x in
            let on_boundary = k >= 1 && n.boundaries.(k - 1) = q.x in
            (match n.g with
            | Some g ->
                G.query g ~x:q.x ~ylo:q.ylo ~yhi:q.yhi
                  ~f:(if on_boundary then emit_frag_left else emit_frag)
            | None -> ());
            if on_boundary then begin
              let i = k - 1 in
              (match n.cs.(i) with
              | Some c -> Itree.overlap c ~lo:q.ylo ~hi:q.yhi ~f:(fun iv -> f iv.seg.Segment.id)
              | None -> ());
              Pst.query n.ls.(i) (Lseg.query ~uq:0.0 ~vlo:q.ylo ~vhi:q.yhi) ~f:emit_lseg
              (* every segment touching the boundary lives here, and every
                 kid lies strictly inside its slab: stop *)
            end
            else begin
              if k <= m - 1 then
                Pst.query n.ls.(k)
                  (Lseg.query ~uq:(n.boundaries.(k) -. q.x) ~vlo:q.ylo ~vhi:q.yhi)
                  ~f:emit_lseg;
              if k >= 1 then
                Pst.query n.rs.(k - 1)
                  (Lseg.query ~uq:(q.x -. n.boundaries.(k - 1)) ~vlo:q.ylo ~vhi:q.yhi)
                  ~f:emit_lseg;
              go n.kids.(k)
            end
    in
    go t.root

  (* ---------------- insertion ---------------- *)

  let node_size t addr =
    if addr = Block_store.null then 0
    else match Store.read t.store addr with Leaf s -> Array.length s | Node n -> n.size

  (* Every segment is stored once: in a leaf, in a [C_i], or in the [L_i]
     of its first crossed boundary. *)
  let rec collect t addr acc =
    if addr <> Block_store.null then begin
      let add s = acc := s :: !acc in
      let add_id id = add (Hashtbl.find t.by_id id) in
      (match Store.read t.store addr with
      | Leaf segs -> Array.iter add segs
      | Node n ->
          Array.iter
            (function Some c -> Itree.iter c (fun iv -> add iv.Itree.seg) | None -> ())
            n.cs;
          Array.iter (fun p -> Pst.iter p (fun ls -> add_id ls.Lseg.id)) n.ls;
          (* rs mirror ls; G fragments come from the same segments *)
          Array.iter (fun kid -> collect t kid acc) n.kids);
      Store.free t.store addr
    end

  let rebuild_subtree t addr =
    let acc = ref [] in
    collect t addr acc;
    build_node t (Array.of_list !acc)

  (* The tree grows only through [build_node]: an absent kid becomes a
     leaf, an overfull leaf is rebuilt, and so is a node with a heavy kid
     ({!Segdb_util.Balance.heavy}). *)
  let rec insert_rec t addr (s : Segment.t) : Block_store.addr =
    if addr = Block_store.null then build_node t [| s |]
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
      | Node n -> (
          match on_boundary n.boundaries s with
          | Some i ->
              let c = match n.cs.(i) with Some c -> c | None -> build_itree t [] in
              Itree.insert c (ivl_of s);
              let cs = Array.copy n.cs in
              cs.(i) <- Some c;
              Store.write t.store addr (Node { n with cs; size = n.size + 1 });
              addr
          | None -> (
              match crossed n.boundaries s with
              | Some (f, l) ->
                  Pst.insert n.ls.(f) (Lseg.left_of_vline ~base_x:n.boundaries.(f) s);
                  Pst.insert n.rs.(l) (Lseg.right_of_vline ~base_x:n.boundaries.(l) s);
                  if f < l then begin
                    match (n.g, Segment.clip_x s n.boundaries.(f) n.boundaries.(l)) with
                    | Some g, Some frag -> G.insert g frag
                    | _ -> assert false
                  end;
                  Store.write t.store addr (Node { n with size = n.size + 1 });
                  addr
              | None ->
                  let k = slab_of n.boundaries s.x1 in
                  let kid = insert_rec t n.kids.(k) s in
                  let kids = Array.copy n.kids in
                  kids.(k) <- kid;
                  Store.write t.store addr (Node { n with kids; size = n.size + 1 });
                  if
                    Segdb_util.Balance.heavy ~fanout:(Array.length kids) ~block:t.cfg.block
                      ~child:(node_size t kid) ~parent:(n.size + 1)
                  then rebuild_subtree t addr
                  else addr))

  let insert t s =
    if Hashtbl.mem t.by_id s.Segment.id then invalid_arg (name ^ ".insert: duplicate id");
    Hashtbl.replace t.by_id s.Segment.id s;
    t.size <- t.size + 1;
    t.root <- insert_rec t t.root s

  (* ---------------- deletion ---------------- *)

  let rec free_tree t addr =
    if addr <> Block_store.null then begin
      (match Store.read t.store addr with
      | Leaf _ -> ()
      | Node n -> Array.iter (free_tree t) n.kids);
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
      | Node n -> (
          match on_boundary n.boundaries s with
          | Some i -> (
              match n.cs.(i) with
              | Some c ->
                  let present = Itree.delete c (ivl_of s) in
                  if present then Store.write t.store addr (Node { n with size = n.size - 1 });
                  present
              | None -> false)
          | None -> (
              match crossed n.boundaries s with
              | Some (f, l) ->
                  let dl = Pst.delete n.ls.(f) (Lseg.left_of_vline ~base_x:n.boundaries.(f) s) in
                  let dr = Pst.delete n.rs.(l) (Lseg.right_of_vline ~base_x:n.boundaries.(l) s) in
                  if dl <> dr then invalid_arg (name ^ ".delete: inconsistent halves");
                  if dl && f < l then begin
                    match (n.g, Segment.clip_x s n.boundaries.(f) n.boundaries.(l)) with
                    | Some g, Some frag -> ignore (G.delete g frag)
                    | _ -> ()
                  end;
                  if dl then Store.write t.store addr (Node { n with size = n.size - 1 });
                  dl
              | None ->
                  let k = slab_of n.boundaries s.x1 in
                  let present = delete_rec t n.kids.(k) s in
                  if present then Store.write t.store addr (Node { n with size = n.size - 1 });
                  present))

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
          + Array.fold_left
              (fun acc c -> match c with Some c -> acc + Itree.block_count c | None -> acc)
              0 n.cs
          + Array.fold_left (fun acc p -> acc + Pst.block_count p) 0 n.ls
          + Array.fold_left (fun acc p -> acc + Pst.block_count p) 0 n.rs
          + (match n.g with Some g -> G.block_count g | None -> 0)
          + Array.fold_left (fun acc kid -> acc + blocks_rec t kid) 0 n.kids

  let block_count t = blocks_rec t t.root

  let rec cascade_rec t addr =
    if addr = Block_store.null then (0, 0)
    else
      match Store.read t.store addr with
      | Leaf _ -> (0, 0)
      | Node n ->
          let g0, f0 =
            match n.g with
            | Some g -> (G.guided_levels g, G.fallback_searches g)
            | None -> (0, 0)
          in
          Array.fold_left
            (fun (ga, fa) kid ->
              let g, f = cascade_rec t kid in
              (ga + g, fa + f))
            (g0, f0) n.kids

  let cascade_counters t = cascade_rec t t.root

  let check_invariants t =
    let ok = ref true in
    let fail () = ok := false in
    let seen = Hashtbl.create 64 in
    let see (s : Segment.t) =
      if Hashtbl.mem seen s.id then fail () else Hashtbl.add seen s.id ()
    in
    (* strictly inside the open slab (lo, hi) *)
    let inside ~lo ~hi x =
      (match lo with Some b -> x > b | None -> true)
      && match hi with Some b -> x < b | None -> true
    in
    let rec go addr ~lo ~hi =
      if addr = Block_store.null then 0
      else
        match Store.read t.store addr with
        | Leaf segs ->
            Array.iter
              (fun (s : Segment.t) ->
                see s;
                if not (inside ~lo ~hi s.x1 && inside ~lo ~hi s.x2) then fail ())
              segs;
            Array.length segs
        | Node n ->
            let m = Array.length n.boundaries in
            Array.iter (fun b -> if not (inside ~lo ~hi b) then fail ()) n.boundaries;
            let stored = ref 0 in
            Array.iteri
              (fun i c ->
                match c with
                | Some c ->
                    Itree.iter c (fun iv ->
                        incr stored;
                        see iv.Itree.seg;
                        if on_boundary n.boundaries iv.Itree.seg <> Some i then fail ())
                | None -> ())
              n.cs;
            Array.iteri
              (fun i p ->
                if not (Pst.check_invariants p) then fail ();
                Pst.iter p (fun ls ->
                    incr stored;
                    let s = Hashtbl.find t.by_id ls.Lseg.id in
                    see s;
                    if on_boundary n.boundaries s <> None then fail ();
                    match crossed n.boundaries s with
                    | Some (f, _) -> if f <> i then fail ()
                    | None -> fail ()))
              n.ls;
            Array.iteri
              (fun i p ->
                if not (Pst.check_invariants p) then fail ();
                Pst.iter p (fun ls ->
                    let s = Hashtbl.find t.by_id ls.Lseg.id in
                    match crossed n.boundaries s with
                    | Some (_, l) -> if l <> i then fail ()
                    | None -> fail ()))
              n.rs;
            let total ps = Array.fold_left (fun acc p -> acc + Pst.size p) 0 ps in
            if total n.ls <> total n.rs then fail ();
            (match n.g with Some g -> if not (G.check_invariants g) then fail () | None -> ());
            let kid_sizes =
              Array.mapi
                (fun k kid ->
                  let klo = if k = 0 then lo else Some n.boundaries.(k - 1) in
                  let khi = if k = m then hi else Some n.boundaries.(k) in
                  go kid ~lo:klo ~hi:khi)
                n.kids
            in
            let below = Array.fold_left ( + ) 0 kid_sizes in
            if !stored + below <> n.size then fail ();
            n.size
    in
    let total = go t.root ~lo:None ~hi:None in
    if total <> t.size then fail ();
    !ok
end
