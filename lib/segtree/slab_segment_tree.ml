open Segdb_io
open Segdb_geom

(* Overlay keys: inserted fragments keyed by their crossing of the
   G-node's reference boundary; the full segment rides along so
   predicate searches can evaluate geometry at the query abscissa. *)
module Okey = struct
  type t = { ykey : float; seg : Segment.t }

  (* must agree with [cmp_at] below: slope breaks ties of fragments
     touching at the reference line *)
  let compare a b =
    let c = compare a.ykey b.ykey in
    if c <> 0 then c
    else
      let c = compare (Segment.slope a.seg) (Segment.slope b.seg) in
      if c <> 0 then c else compare a.seg.Segment.id b.seg.Segment.id
end

module Obt = Segdb_btree.Bplus_tree.Make (Okey) (struct
  type t = unit
end)

type entry = {
  frag : Segment.t;
  land_left : Packed_list.pos option;
      (* physical position of this entry's successor in the left child's
         list (first child entry >= this one); None when the child list
         is empty. O(1) access — the fractional cascading bridge. *)
  land_right : Packed_list.pos option;
}

module Plist = Packed_list.Make (struct
  type t = entry
end)

type gnode = {
  glo : int; (* gap range covered by this node *)
  ghi : int;
  mutable list : Plist.t;
  mutable overlay : Obt.t option; (* inserted-since-rebuild fragments *)
  left : gnode option;
  right : gnode option;
}

type t = {
  boundaries : float array;
  pool : Block_store.Pool.t;
  io : Io_stats.t;
  list_block : int;
  mutable root : gnode option;
  mutable static_size : int; (* fragments in the packed lists *)
  mutable overlay_size : int; (* fragments inserted since last rebuild *)
  tombstones : (int, unit) Hashtbl.t;
      (* ids deleted from the packed lists, awaiting a rebuild; they
         never hide overlay entries, so an id deleted and then
         re-inserted stays visible *)
  cascade : bool;
  (* query-path diagnostics: atomic because queries — the only writers
     of these counters — may run from several domains at once *)
  guided : int Atomic.t;
  fallback : int Atomic.t;
}

(* Vertical order of fragments along the line [x = line]: both fragments
   must span it. Fragments touching at the line itself are ordered by
   slope — at any abscissa right of the line that is their true
   vertical order (all reference lines are left span boundaries, so
   queries never fall left of them); ids make the order total. *)
let cmp_at line (a : Segment.t) (b : Segment.t) =
  let c = compare (Segment.y_at a line) (Segment.y_at b line) in
  if c <> 0 then c
  else
    let c = compare (Segment.slope a) (Segment.slope b) in
    if c <> 0 then c else compare a.Segment.id b.Segment.id

let lower_bound arr cmp_v =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cmp_v arr.(mid) > 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let boundary_index boundaries x =
  let lo = ref 0 and hi = ref (Array.length boundaries - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if boundaries.(mid) < x then lo := mid + 1 else hi := mid
  done;
  if boundaries.(!lo) = x then !lo
  else invalid_arg "Slab_segment_tree: fragment endpoint is not on a boundary"

(* mutable skeleton used during construction *)
type proto = {
  pglo : int;
  pghi : int;
  mutable bucket : Segment.t list;
  pleft : proto option;
  pright : proto option;
}

let rec mk_proto glo ghi =
  if glo = ghi then { pglo = glo; pghi = ghi; bucket = []; pleft = None; pright = None }
  else begin
    let mid = (glo + ghi) / 2 in
    {
      pglo = glo;
      pghi = ghi;
      bucket = [];
      pleft = Some (mk_proto glo mid);
      pright = Some (mk_proto (mid + 1) ghi);
    }
  end

(* Standard segment tree allocation: [a, b] is the fragment's gap range. *)
let rec assign proto a b frag =
  if a <= proto.pglo && proto.pghi <= b then proto.bucket <- frag :: proto.bucket
  else begin
    (match proto.pleft with
    | Some l when a <= l.pghi -> assign l a b frag
    | _ -> ());
    match proto.pright with
    | Some r when b >= r.pglo -> assign r a b frag
    | _ -> ()
  end

let construct ~pool ~stats ~list_block ~boundaries frags =
  let nb = Array.length boundaries in
  let proto = mk_proto 0 (nb - 2) in
  Array.iter
    (fun (f : Segment.t) ->
      let a = boundary_index boundaries f.Segment.x1
      and b = boundary_index boundaries f.Segment.x2 in
      if a >= b then invalid_arg "Slab_segment_tree.build: fragment spans no gap";
      assign proto a (b - 1) f)
    frags;
  (* Finalize bottom-up: sort each bucket at the node's reference line,
     then compute exact landings into the children's sorted arrays. *)
  let rec finalize proto : gnode * Segment.t array =
    let left = Option.map finalize proto.pleft in
    let right = Option.map finalize proto.pright in
    let line = boundaries.(proto.pglo) in
    let sorted = Array.of_list proto.bucket in
    Array.sort (cmp_at line) sorted;
    let landing side_arr_opt (f : Segment.t) =
      match side_arr_opt with
      | None -> None
      | Some (child, arr) ->
          if Array.length arr = 0 then None
          else begin
            let child_line = boundaries.(child.glo) in
            let idx = lower_bound arr (fun g -> cmp_at child_line f g) in
            Some (Plist.pos_of child.list idx)
          end
    in
    let entries =
      Array.map
        (fun f ->
          { frag = f; land_left = landing left f; land_right = landing right f })
        sorted
    in
    let list = Plist.build ~block_capacity:list_block ~pool ~stats entries in
    let node =
      {
        glo = proto.pglo;
        ghi = proto.pghi;
        list;
        overlay = None;
        left = Option.map fst left;
        right = Option.map fst right;
      }
    in
    (node, sorted)
  in
  let root, _ = finalize proto in
  root

let build ?(cascade = true) ?(list_block = 64) ~pool ~stats ~boundaries frags =
  let nb = Array.length boundaries in
  if nb < 2 then invalid_arg "Slab_segment_tree.build: need at least 2 boundaries";
  for i = 1 to nb - 1 do
    if boundaries.(i - 1) >= boundaries.(i) then
      invalid_arg "Slab_segment_tree.build: boundaries must be strictly increasing"
  done;
  let root = construct ~pool ~stats ~list_block ~boundaries frags in
  {
    boundaries;
    pool;
    io = stats;
    list_block;
    root = Some root;
    static_size = Array.length frags;
    overlay_size = 0;
    tombstones = Hashtbl.create 16;
    cascade;
    guided = Atomic.make 0;
    fallback = Atomic.make 0;
  }

let size t = t.static_size + t.overlay_size - Hashtbl.length t.tombstones

let rec stored_rec node =
  Plist.length node.list
  + (match node.overlay with Some o -> Obt.size o | None -> 0)
  + (match node.left with Some l -> stored_rec l | None -> 0)
  + match node.right with Some r -> stored_rec r | None -> 0

let stored_entries t = match t.root with Some r -> stored_rec r | None -> 0

let rec blocks_rec node =
  Plist.block_count node.list
  + (match node.overlay with Some o -> Obt.block_count o | None -> 0)
  + (match node.left with Some l -> blocks_rec l | None -> 0)
  + match node.right with Some r -> blocks_rec r | None -> 0

let block_count t = match t.root with Some r -> blocks_rec r | None -> 0

let guided_levels t = Atomic.get t.guided
let fallback_searches t = Atomic.get t.fallback

(* Query descent along the path to gap [k]. [emit] receives each
   intersected fragment of each list on the path.

   Cascaded levels start from the parent's landing position — one block
   touched, no index descent: entries strictly before the landing are
   <= the parent's first match in the shared NCT order, hence <= yhi at
   [x], so the backward walk emits only reported fragments and stops at
   the first one below [ylo]; the forward walk emits until [yhi] is
   passed. Only fallback levels (no parent match) pay a list search. *)
let c_guided = Probe.counter "slab.cascade_guided"
let c_fallback = Probe.counter "slab.cascade_fallback"

let descend t ~x ~ylo ~yhi ~k ~emit =
  let y_of (e : entry) = Segment.y_at e.frag x in
  let rec go node guidance =
    let list = node.list in
    let f1 =
      if Plist.length list = 0 then None
      else begin
        let f1 = ref None in
        let accept e =
          if not (Hashtbl.mem t.tombstones e.frag.Segment.id) then emit e.frag
        in
        let forward_from pos =
          let first_fwd = ref None in
          Plist.walk_forward list pos (fun e ->
              if y_of e > yhi then `Stop
              else begin
                if !first_fwd = None then first_fwd := Some e;
                accept e;
                `Continue
              end);
          !first_fwd
        in
        (match guidance with
        | Some pos when t.cascade ->
            Atomic.incr t.guided;
            Probe.bump c_guided;
            (* matches below the landing, in decreasing order; the last
               accepted is the subtree's first match *)
            Plist.walk_backward list pos (fun e ->
                if y_of e >= ylo then begin
                  f1 := Some e;
                  accept e;
                  `Continue
                end
                else `Stop);
            let first_fwd = forward_from pos in
            if !f1 = None then f1 := first_fwd
        | _ ->
            Atomic.incr t.fallback;
            Probe.bump c_fallback;
            let idx = Plist.search list ~cmp:(fun e -> if y_of e >= ylo then 0 else -1) in
            if idx < Plist.length list then f1 := forward_from (Plist.pos_of list idx));
        !f1
      end
    in
    (match node.overlay with
    | Some ob when not (Obt.is_empty ob) ->
        Obt.iter_from_pred ob
          ~pred:(fun (k : Okey.t) -> Segment.y_at k.seg x >= ylo)
          (fun k () ->
            if Segment.y_at k.seg x > yhi then `Stop
            else begin
              emit k.seg;
              `Continue
            end)
    | _ -> ());
    if node.glo <> node.ghi then begin
      let mid = (node.glo + node.ghi) / 2 in
      let child, landing =
        if k <= mid then (node.left, Option.bind f1 (fun e -> e.land_left))
        else (node.right, Option.bind f1 (fun e -> e.land_right))
      in
      match child with Some c -> go c landing | None -> ()
    end
  in
  match t.root with Some r -> go r None | None -> ()

let query t ~x ~ylo ~yhi ~f =
  if ylo > yhi then invalid_arg "Slab_segment_tree.query: ylo > yhi";
  Probe.span t.io "slab.query" @@ fun () ->
  let boundaries = t.boundaries in
  let nb = Array.length boundaries in
  if nb >= 2 && x >= boundaries.(0) && x <= boundaries.(nb - 1) then begin
    (* gap index: number of boundaries < x, minus 1; exact hits on an
       interior boundary touch fragments on both sides *)
    let cnt = ref 0 in
    Array.iter (fun b -> if b < x then incr cnt) boundaries;
    let on_boundary =
      let lo = ref 0 and hi = ref (nb - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if boundaries.(mid) < x then lo := mid + 1 else hi := mid
      done;
      boundaries.(!lo) = x
    in
    let gap = if on_boundary then !cnt else !cnt - 1 in
    let k_right = max 0 (min gap (nb - 2)) in
    if on_boundary && !cnt > 0 && !cnt <= nb - 2 then begin
      (* Two paths. Fragments end on boundaries, so the left gap's path
         holds every fragment touching x except those starting at x,
         and only those are new on the right gap's path. *)
      descend t ~x ~ylo ~yhi ~k:(!cnt - 1) ~emit:f;
      descend t ~x ~ylo ~yhi ~k:!cnt ~emit:(fun frag -> if frag.Segment.x1 = x then f frag)
    end
    else descend t ~x ~ylo ~yhi ~k:k_right ~emit:f
  end

let query_list t ~x ~ylo ~yhi =
  let acc = ref [] in
  query t ~x ~ylo ~yhi ~f:(fun s -> acc := s :: !acc);
  !acc

let check_invariants t =
  let ok = ref true in
  let fail () = ok := false in
  let boundaries = t.boundaries in
  let total = ref 0 in
  let incr_total () = incr total in
  let rec arr_of node = Plist.to_array node.list |> Array.map (fun e -> e.frag)
  and go node =
    let entries = Plist.to_array node.list in
    total := !total + Array.length entries;
    let line = boundaries.(node.glo) in
    for i = 1 to Array.length entries - 1 do
      if cmp_at line entries.(i - 1).frag entries.(i).frag >= 0 then fail ()
    done;
    Array.iter
      (fun e ->
        (* allocated fragments span the node's whole range *)
        let a = boundary_index boundaries e.frag.Segment.x1
        and b = boundary_index boundaries e.frag.Segment.x2 in
        if not (a <= node.glo && node.ghi <= b - 1) then fail ())
      entries;
    let check_land child get_land =
      match child with
      | None -> Array.iter (fun e -> if get_land e <> None then fail ()) entries
      | Some c ->
          let carr = arr_of c in
          let cline = boundaries.(c.glo) in
          Array.iter
            (fun e ->
              let expect = lower_bound carr (fun g -> cmp_at cline e.frag g) in
              match get_land e with
              | None -> if Array.length carr > 0 then fail ()
              | Some (p : Packed_list.pos) ->
                  if p.pbase + p.poffset <> expect then fail ())
            entries
    in
    check_land node.left (fun e -> e.land_left);
    check_land node.right (fun e -> e.land_right);
    (match node.overlay with
    | Some ob ->
        Obt.iter_range ob ~lo:None ~hi:None (fun (k : Okey.t) () ->
            incr_total ();
            if k.ykey <> Segment.y_at k.seg line then fail ();
            let a = boundary_index boundaries k.seg.Segment.x1
            and b = boundary_index boundaries k.seg.Segment.x2 in
            if not (a <= node.glo && node.ghi <= b - 1) then fail ())
    | None -> ());
    (match node.left with Some l -> go l | None -> ());
    match node.right with Some r -> go r | None -> ()
  in
  (match t.root with Some r -> go r | None -> ());
  if !total <> stored_entries t then fail ();
  !ok

(* ---------------- semi-dynamic insertion ---------------- *)

(* Every live fragment once: packed entries minus tombstones, plus the
   overlays. *)
let iter_unique t f =
  let seen = Hashtbl.create 64 in
  let visit (s : Segment.t) =
    if not (Hashtbl.mem seen s.Segment.id) then begin
      Hashtbl.add seen s.Segment.id ();
      f s
    end
  in
  let rec go node =
    Plist.iter_forward node.list 0 (fun _ e ->
        if not (Hashtbl.mem t.tombstones e.frag.Segment.id) then visit e.frag;
        `Continue);
    (match node.overlay with
    | Some ob -> Obt.iter_range ob ~lo:None ~hi:None (fun (k : Okey.t) () -> visit k.seg)
    | None -> ());
    (match node.left with Some l -> go l | None -> ());
    match node.right with Some r -> go r | None -> ()
  in
  match t.root with Some r -> go r | None -> ()

let rec free_lists node =
  Plist.free node.list;
  (* overlay B+-trees are dropped wholesale; their handles become
     unreachable and stop being counted *)
  (match node.left with Some l -> free_lists l | None -> ());
  match node.right with Some r -> free_lists r | None -> ()

let rebuild t =
  let frags = ref [] in
  iter_unique t (fun s -> frags := s :: !frags);
  (match t.root with Some r -> free_lists r | None -> ());
  let arr = Array.of_list !frags in
  t.root <- Some (construct ~pool:t.pool ~stats:t.io ~list_block:t.list_block ~boundaries:t.boundaries arr);
  t.static_size <- Array.length arr;
  t.overlay_size <- 0;
  Hashtbl.reset t.tombstones

(* Calls [visit] on each node of the fragment's standard segment-tree
   allocation, with the overlay key the fragment has there. *)
let iter_allocation t (f : Segment.t) visit =
  let a = boundary_index t.boundaries f.Segment.x1
  and b = boundary_index t.boundaries f.Segment.x2 in
  if a >= b then invalid_arg "Slab_segment_tree: fragment spans no gap";
  let rec go node =
    if a <= node.glo && node.ghi <= b - 1 then
      visit node { Okey.ykey = Segment.y_at f t.boundaries.(node.glo); seg = f }
    else begin
      (match node.left with Some l when a <= l.ghi -> go l | _ -> ());
      match node.right with Some r when b - 1 >= r.glo -> go r | _ -> ()
    end
  in
  match t.root with Some r -> go r | None -> ()

let insert t (f : Segment.t) =
  iter_allocation t f (fun node key ->
      let ob =
        match node.overlay with
        | Some ob -> ob
        | None ->
            let ob = Obt.create ~fanout:(max 4 t.list_block) ~pool:t.pool ~stats:t.io () in
            node.overlay <- Some ob;
            ob
      in
      Obt.insert ob key ());
  t.overlay_size <- t.overlay_size + 1;
  (* doubling rebuild folds the overlay into the cascaded static lists *)
  if t.overlay_size + Hashtbl.length t.tombstones > max (2 * t.list_block) t.static_size then
    rebuild t

let delete t (f : Segment.t) =
  (* The caller (Solution 2) guarantees the fragment is stored. One
     still in the overlays is removed from them outright; one in the
     packed lists is tombstoned, which keeps the lists untouched until
     the next doubling rebuild. *)
  let in_overlay = ref false in
  iter_allocation t f (fun node key ->
      match node.overlay with
      | Some ob -> if Obt.delete ob key then in_overlay := true
      | None -> ());
  if !in_overlay then begin
    t.overlay_size <- t.overlay_size - 1;
    true
  end
  else if Hashtbl.mem t.tombstones f.Segment.id then false
  else begin
    Hashtbl.add t.tombstones f.Segment.id ();
    if Hashtbl.length t.tombstones + t.overlay_size > max (2 * t.list_block) t.static_size
    then rebuild t;
    true
  end
