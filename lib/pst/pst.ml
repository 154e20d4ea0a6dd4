open Segdb_io
open Segdb_geom

(* A router describes one child subtree from the parent's point of view:
   everything pruning needs without touching the child's block. *)
type child = {
  addr : Block_store.addr; (* Block_store.null = absent subtree *)
  top : float; (* max far_u in the subtree *)
  kmin : Lseg.t; (* least segment of the subtree in key order *)
  kmax : Lseg.t; (* greatest *)
  csize : int; (* number of segments in the subtree *)
}

type node = {
  segs : Lseg.t array; (* deepest segments of the subtree, key-sorted *)
  splits : Lseg.t array; (* branching-1 key separators, or [||] for a leaf *)
  children : child array; (* branching routers, or [||] for a leaf *)
}

module Store = Block_store.Make (struct
  type t = node
end)

type t = {
  store : Store.t;
  pool : Block_store.Pool.t;
  io : Io_stats.t;
  cap : int;
  branching : int;
  mutable root : child;
}

let dummy_seg = Lseg.make ~base_v:0.0 ~far_u:0.0 ~far_v:0.0 ()

(* Sentinel greater than every real key (compare_key looks at base_v
   first). *)
let max_sentinel = Lseg.make ~base_v:infinity ~far_u:0.0 ~far_v:infinity ()

let no_child = { addr = Block_store.null; top = neg_infinity; kmin = dummy_seg; kmax = dummy_seg; csize = 0 }

let key_min a b = if Lseg.compare_key a b <= 0 then a else b
let key_max a b = if Lseg.compare_key a b >= 0 then a else b

let size t = t.root.csize

(* ---------------- static construction ---------------- *)

(* Split [arr] (key-sorted) into the [cap] deepest segments (key-sorted)
   and the rest (key order preserved). *)
let select_deepest cap arr =
  let m = Array.length arr in
  if m <= cap then (arr, [||])
  else begin
    let order = Array.init m (fun i -> i) in
    Array.sort
      (fun i j ->
        let c = compare arr.(j).Lseg.far_u arr.(i).Lseg.far_u in
        if c <> 0 then c else compare i j)
      order;
    let chosen = Array.make m false in
    for r = 0 to cap - 1 do
      chosen.(order.(r)) <- true
    done;
    let top = Array.make cap dummy_seg and rest = Array.make (m - cap) dummy_seg in
    let ti = ref 0 and ri = ref 0 in
    for i = 0 to m - 1 do
      if chosen.(i) then begin
        top.(!ti) <- arr.(i);
        incr ti
      end
      else begin
        rest.(!ri) <- arr.(i);
        incr ri
      end
    done;
    (top, rest)
  end

let subtree_stats arr =
  let top = ref neg_infinity in
  Array.iter (fun (s : Lseg.t) -> if s.far_u > !top then top := s.far_u) arr;
  !top

(* Build a subtree from a key-sorted array; returns its router. *)
let rec build_sub t (arr : Lseg.t array) : child =
  let m = Array.length arr in
  if m = 0 then no_child
  else begin
    let segs, rest = select_deepest t.cap arr in
    let node =
      if Array.length rest = 0 then { segs; splits = [||]; children = [||] }
      else begin
        let rlen = Array.length rest in
        (* cap the fan-out so children are at least block-sized: wide
           nodes over tiny subtrees would waste a block per child *)
        let f = max 2 (min t.branching ((rlen + t.cap - 1) / t.cap)) in
        let boundary i = i * rlen / f in
        let children =
          Array.init f (fun i ->
              let lo = boundary i and hi = boundary (i + 1) in
              build_sub t (Array.sub rest lo (hi - lo)))
        in
        let splits =
          Array.init (f - 1) (fun i ->
              let b = boundary (i + 1) in
              if b < rlen then rest.(b) else max_sentinel)
        in
        { segs; splits; children }
      end
    in
    let addr = Store.alloc t.store node in
    { addr; top = subtree_stats arr; kmin = arr.(0); kmax = arr.(m - 1); csize = m }
  end

let build ?(node_capacity = 64) ?(branching = 2) ~pool ~stats lsegs =
  if node_capacity < 2 then invalid_arg "Pst.build: node_capacity must be >= 2";
  if branching < 2 then invalid_arg "Pst.build: branching must be >= 2";
  let store = Store.create ~name:"pst" ~pool ~stats () in
  let t = { store; pool; io = stats; cap = node_capacity; branching; root = no_child } in
  let arr = Array.copy lsegs in
  Array.sort Lseg.compare_key arr;
  t.root <- build_sub t arr;
  t

let binary ?node_capacity ~pool ~stats lsegs = build ?node_capacity ~branching:2 ~pool ~stats lsegs

let blocked ?(node_capacity = 64) ~pool ~stats lsegs =
  build ~node_capacity ~branching:(max 4 (node_capacity / 4)) ~pool ~stats lsegs

(* ---------------- traversal ---------------- *)

let rec iter_sub t (c : child) f =
  if c.addr <> Block_store.null then begin
    let n = Store.read t.store c.addr in
    Array.iter f n.segs;
    Array.iter (fun ch -> iter_sub t ch f) n.children
  end

let iter t f = iter_sub t t.root f

let rec height_sub t (c : child) =
  if c.addr = Block_store.null then 0
  else
    let n = Store.read t.store c.addr in
    1 + Array.fold_left (fun acc ch -> max acc (height_sub t ch)) 0 n.children

let height t = height_sub t t.root

let block_count t = Store.block_count t.store

(* ---------------- query ---------------- *)

(* Witness bounds: [lo] is a scanned segment known to cross strictly
   left of the query range, [hi] one crossing strictly right. By the NCT
   order lemma no match can have key <= key(lo) or >= key(hi), so whole
   subtrees are pruned through their routers. *)

let query t (q : Lseg.query) ~f =
  Probe.span t.io "pst.report" @@ fun () ->
  let lo = ref None and hi = ref None in
  let pruned (c : child) =
    (match !lo with Some w -> Lseg.compare_key c.kmax w <= 0 | None -> false)
    || match !hi with Some w -> Lseg.compare_key c.kmin w >= 0 | None -> false
  in
  let scan (s : Lseg.t) =
    if Lseg.reaches s q.uq then begin
      let cv = Lseg.cross_v s q.uq in
      if cv < q.vlo then (
        match !lo with
        | Some w when Lseg.compare_key w s >= 0 -> ()
        | _ -> lo := Some s)
      else if cv > q.vhi then (
        match !hi with
        | Some w when Lseg.compare_key w s <= 0 -> ()
        | _ -> hi := Some s)
      else f s
    end
  in
  let rec visit (c : child) =
    if c.addr <> Block_store.null && c.top >= q.uq && not (pruned c) then begin
      let n = Store.read t.store c.addr in
      Array.iter scan n.segs;
      Array.iter visit n.children
    end
  in
  visit t.root

let query_list t q =
  let acc = ref [] in
  query t q ~f:(fun s -> acc := s :: !acc);
  !acc

let count t q =
  let n = ref 0 in
  query t q ~f:(fun _ -> incr n);
  !n

(* Find: deepest-leftmost / deepest-rightmost intersected segment
   (Lemma 1.1). A DFS ordered toward the sought boundary, with witness
   pruning plus pruning against the best answer found so far. *)
let find_gen t (q : Lseg.query) ~leftmost =
  Probe.span t.io "pst.find" @@ fun () ->
  let lo = ref None and hi = ref None and best = ref None in
  let better s =
    match !best with
    | None -> true
    | Some b -> if leftmost then Lseg.compare_key s b < 0 else Lseg.compare_key s b > 0
  in
  let pruned (c : child) =
    (match !lo with Some w -> Lseg.compare_key c.kmax w <= 0 | None -> false)
    || (match !hi with Some w -> Lseg.compare_key c.kmin w >= 0 | None -> false)
    ||
    match !best with
    | None -> false
    | Some b ->
        if leftmost then Lseg.compare_key c.kmin b >= 0 else Lseg.compare_key c.kmax b <= 0
  in
  let scan (s : Lseg.t) =
    if Lseg.reaches s q.uq then begin
      let cv = Lseg.cross_v s q.uq in
      if cv < q.vlo then (
        match !lo with
        | Some w when Lseg.compare_key w s >= 0 -> ()
        | _ -> lo := Some s)
      else if cv > q.vhi then (
        match !hi with
        | Some w when Lseg.compare_key w s <= 0 -> ()
        | _ -> hi := Some s)
      else if better s then best := Some s
    end
  in
  let rec visit (c : child) =
    if c.addr <> Block_store.null && c.top >= q.uq && not (pruned c) then begin
      let n = Store.read t.store c.addr in
      Array.iter scan n.segs;
      let k = Array.length n.children in
      if leftmost then
        for i = 0 to k - 1 do
          visit n.children.(i)
        done
      else
        for i = k - 1 downto 0 do
          visit n.children.(i)
        done
    end
  in
  visit t.root;
  !best

let find_leftmost t q = find_gen t q ~leftmost:true
let find_rightmost t q = find_gen t q ~leftmost:false

(* The Appendix A formulation: a breadth-first frontier (the paper's
   queue Q) holding the candidate nodes of one level at a time, pruned
   by the same witnesses. Lemma 1 claims the queue holds at most two
   nodes per level; [find_profile] measures the realized frontier width
   so the claim can be validated empirically (experiment E13). *)
type find_profile = {
  result : Lseg.t option;
  visited : int; (* blocks read *)
  max_width : int; (* widest frontier over all levels *)
  levels : int;
}

let find_profile t (q : Lseg.query) ~leftmost =
  let lo = ref None and hi = ref None and best = ref None in
  let better s =
    match !best with
    | None -> true
    | Some b -> if leftmost then Lseg.compare_key s b < 0 else Lseg.compare_key s b > 0
  in
  let pruned (c : child) =
    (match !lo with Some w -> Lseg.compare_key c.kmax w <= 0 | None -> false)
    || (match !hi with Some w -> Lseg.compare_key c.kmin w >= 0 | None -> false)
    ||
    match !best with
    | None -> false
    | Some b ->
        if leftmost then Lseg.compare_key c.kmin b >= 0 else Lseg.compare_key c.kmax b <= 0
  in
  let scan (s : Lseg.t) =
    if Lseg.reaches s q.uq then begin
      let cv = Lseg.cross_v s q.uq in
      if cv < q.vlo then (
        match !lo with
        | Some w when Lseg.compare_key w s >= 0 -> ()
        | _ -> lo := Some s)
      else if cv > q.vhi then (
        match !hi with
        | Some w when Lseg.compare_key w s <= 0 -> ()
        | _ -> hi := Some s)
      else if better s then best := Some s
    end
  in
  let visited = ref 0 and max_width = ref 0 and levels = ref 0 in
  let live (c : child) = c.addr <> Block_store.null && c.top >= q.uq && not (pruned c) in
  let frontier = ref (if live t.root then [ t.root ] else []) in
  while !frontier <> [] do
    incr levels;
    let processed = ref 0 in
    let next = ref [] in
    List.iter
      (fun (c : child) ->
        (* re-check: scanning earlier frontier nodes may have tightened
           the witnesses, so most enqueued candidates die unread *)
        if live c then begin
          incr visited;
          incr processed;
          let n = Store.read t.store c.addr in
          Array.iter scan n.segs;
          Array.iter (fun ch -> if live ch then next := ch :: !next) n.children
        end)
      !frontier;
    if !processed > !max_width then max_width := !processed;
    frontier := List.rev !next
  done;
  { result = !best; visited = !visited; max_width = !max_width; levels = !levels }

(* The paper's literal two-phase Report (Appendix A, Algorithm 2):
   locate the deepest-leftmost and deepest-rightmost intersected
   segments, then report the 3-sided set {key in [sl, sr], far_u >= uq}
   — by the NCT order lemma that set equals the answer. The one-pass
   [query] is the production path; this variant exists to execute the
   paper's algorithm as written and is oracle-tested against [query]. *)
let query_two_phase t (q : Lseg.query) ~f =
  Probe.span t.io "pst.report" @@ fun () ->
  match (find_leftmost t q, find_rightmost t q) with
  | None, _ | _, None -> ()
  | Some sl, Some sr ->
      let rec report (c : child) =
        if
          c.addr <> Block_store.null && c.top >= q.uq
          && Lseg.compare_key c.kmax sl >= 0
          && Lseg.compare_key c.kmin sr <= 0
        then begin
          let n = Store.read t.store c.addr in
          Array.iter
            (fun (s : Lseg.t) ->
              if
                Lseg.reaches s q.uq
                && Lseg.compare_key s sl >= 0
                && Lseg.compare_key s sr <= 0
              then f s)
            n.segs;
          Array.iter report n.children
        end
      in
      report t.root

(* ---------------- insertion ---------------- *)

let sorted_insert (segs : Lseg.t array) (s : Lseg.t) =
  let n = Array.length segs in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Lseg.compare_key segs.(mid) s < 0 then lo := mid + 1 else hi := mid
  done;
  let i = !lo in
  let out = Array.make (n + 1) s in
  Array.blit segs 0 out 0 i;
  Array.blit segs i out (i + 1) (n - i);
  out

(* Index of the shallowest (minimal far_u) segment of a block. *)
let argmin_far_u (segs : Lseg.t array) =
  let best = ref 0 in
  for i = 1 to Array.length segs - 1 do
    if Lseg.compare_far_u segs.(i) segs.(!best) < 0 then best := i
  done;
  !best

let array_remove a i =
  let n = Array.length a in
  let b = Array.sub a 0 (n - 1) in
  Array.blit a (i + 1) b i (n - 1 - i);
  b

(* Child slot for a key: first i with key < splits.(i), else the last. *)
let route splits (s : Lseg.t) =
  let k = Array.length splits in
  let rec go i = if i >= k then k else if Lseg.compare_key s splits.(i) < 0 then i else go (i + 1) in
  go 0

(* Turn a full leaf into an internal node: separators are quantiles of
   its current keys, children start absent. *)
let allocate_children t (n : node) =
  let f = t.branching in
  let m = Array.length n.segs in
  let splits =
    Array.init (f - 1) (fun i ->
        let b = (i + 1) * m / f in
        if b < m then n.segs.(b) else max_sentinel)
  in
  { n with splits; children = Array.make f no_child }

let rec collect_sub t (c : child) acc =
  if c.addr <> Block_store.null then begin
    let n = Store.read t.store c.addr in
    Array.iter (fun s -> acc := s :: !acc) n.segs;
    Array.iter (fun ch -> collect_sub t ch acc) n.children;
    Store.free t.store c.addr
  end

let rebuild_sub t (c : child) =
  let acc = ref [] in
  collect_sub t c acc;
  let arr = Array.of_list !acc in
  Array.sort Lseg.compare_key arr;
  build_sub t arr

(* Scapegoat criterion: rebuild a child that outgrew its fair share of
   the subtree. Binary follows BB[alpha] with alpha = 3/4; wider nodes
   allow 4x the ideal share so that skewed streams do not thrash. The
   fan-out must be the node's actual one — static builds cap it below
   [t.branching] for small subtrees. *)
let needs_rebuild t ~fanout ~child_size ~subtree_size =
  subtree_size > 4 * t.cap
  &&
  if fanout <= 2 then 4 * (child_size + 1) > 3 * (subtree_size + 1)
  else fanout * (child_size + 1) > 4 * (subtree_size + 1)

let fresh_leaf t (s : Lseg.t) =
  let addr = Store.alloc t.store { segs = [| s |]; splits = [||]; children = [||] } in
  { addr; top = s.far_u; kmin = s; kmax = s; csize = 1 }

let rec insert_sub t (c : child) (s : Lseg.t) : child =
  let n = Store.read t.store c.addr in
  let c =
    {
      c with
      top = Float.max c.top s.Lseg.far_u;
      kmin = key_min c.kmin s;
      kmax = key_max c.kmax s;
      csize = c.csize + 1;
    }
  in
  let max_child_top =
    Array.fold_left (fun acc ch -> Float.max acc ch.top) neg_infinity n.children
  in
  if Array.length n.segs < t.cap && (Array.length n.children = 0 || s.Lseg.far_u >= max_child_top)
  then begin
    Store.write t.store c.addr { n with segs = sorted_insert n.segs s };
    c
  end
  else begin
    let n = if Array.length n.children = 0 then allocate_children t n else n in
    (* Keep the block holding the subtree's deepest segments: if [s] is
       deeper than the shallowest resident, it takes that slot and the
       evicted segment sinks instead. *)
    let sink, n =
      let i = argmin_far_u n.segs in
      if Lseg.compare_far_u s n.segs.(i) > 0 then begin
        let evicted = n.segs.(i) in
        (evicted, { n with segs = sorted_insert (array_remove n.segs i) s })
      end
      else (s, n)
    in
    let slot = route n.splits sink in
    let updated =
      if n.children.(slot).addr = Block_store.null then fresh_leaf t sink
      else insert_sub t n.children.(slot) sink
    in
    let children = Array.copy n.children in
    children.(slot) <- updated;
    Store.write t.store c.addr { n with children };
    (* Scapegoat: when one child outgrows its share, the *partition* of
       this subtree is stale — rebuild the whole subtree so quantile
       splits are recomputed. Rebuilding only the child would leave the
       violation in place and thrash. *)
    if
      needs_rebuild t ~fanout:(Array.length n.children) ~child_size:updated.csize
        ~subtree_size:c.csize
    then rebuild_sub t c
    else c
  end

let insert t s =
  if t.root.addr = Block_store.null then t.root <- fresh_leaf t s
  else t.root <- insert_sub t t.root s

(* ---------------- invariants ---------------- *)

let check_invariants t =
  let ok = ref true in
  let fail () = ok := false in
  let rec go (c : child) ~lo ~hi =
    (* lo/hi: exclusive key bounds from parent splits *)
    if c.addr <> Block_store.null then begin
      let n = Store.read t.store c.addr in
      let count = ref 0 and top = ref neg_infinity in
      let kmin = ref None and kmax = ref None in
      let see (s : Lseg.t) =
        incr count;
        if s.far_u > !top then top := s.far_u;
        (match !kmin with None -> kmin := Some s | Some m -> kmin := Some (key_min m s));
        (match !kmax with None -> kmax := Some s | Some m -> kmax := Some (key_max m s));
        (match lo with Some b -> if Lseg.compare_key s b < 0 then fail () | None -> ());
        match hi with Some b -> if Lseg.compare_key s b >= 0 then fail () | None -> ()
      in
      if Array.length n.segs = 0 then fail ();
      if Array.length n.segs > t.cap then fail ();
      for i = 1 to Array.length n.segs - 1 do
        if Lseg.compare_key n.segs.(i - 1) n.segs.(i) >= 0 then fail ()
      done;
      Array.iter see n.segs;
      let shallowest = n.segs.(argmin_far_u n.segs) in
      if Array.length n.children > 0 then begin
        let f = Array.length n.children in
        if f < 2 || f > t.branching then fail ();
        if Array.length n.splits <> f - 1 then fail ();
        if Array.length n.segs > t.cap then fail ();
        Array.iteri
          (fun i ch ->
            let clo = if i = 0 then lo else Some n.splits.(i - 1)
            and chi = if i = Array.length n.children - 1 then hi else Some n.splits.(i) in
            (* heap order across levels *)
            if ch.addr <> Block_store.null && ch.top > shallowest.Lseg.far_u then fail ();
            go ch ~lo:clo ~hi:chi;
            if ch.addr <> Block_store.null then begin
              count := !count + ch.csize;
              if ch.top > !top then top := ch.top;
              (match !kmin with None -> fail () | Some m -> kmin := Some (key_min m ch.kmin));
              match !kmax with None -> fail () | Some m -> kmax := Some (key_max m ch.kmax)
            end)
          n.children
      end
      else if Array.length n.splits <> 0 then fail ();
      if !count <> c.csize then fail ();
      if !top <> c.top then fail ();
      (* kmin/kmax are conservative bounds: deletions leave them stale
         but still enclosing *)
      (match !kmin with
      | Some m -> if Lseg.compare_key m c.kmin < 0 then fail ()
      | None -> fail ());
      match !kmax with
      | Some m -> if Lseg.compare_key m c.kmax > 0 then fail ()
      | None -> fail ()
    end
    else if c.csize <> 0 then fail ()
  in
  go t.root ~lo:None ~hi:None;
  !ok

(* ---------------- deletion ---------------- *)

(* Remove the deepest segment of subtree [c] and return it together
   with the updated router. [c.addr] must be non-null and non-empty. *)
let rec extract_deepest t (c : child) : Lseg.t * child =
  let n = Store.read t.store c.addr in
  (* the deepest segment of the subtree sits in the node block by the
     heap property *)
  let i = ref 0 in
  for j = 1 to Array.length n.segs - 1 do
    if Lseg.compare_far_u n.segs.(j) n.segs.(!i) > 0 then i := j
  done;
  let deepest = n.segs.(!i) in
  let segs = array_remove n.segs !i in
  finish_removal t c n segs deepest

(* Shared tail of delete/extract: [segs] is the node's seg array after
   one removal; refill from the deepest child if the heap has one. *)
and finish_removal t (c : child) n segs removed : Lseg.t * child =
  let best = ref (-1) in
  Array.iteri
    (fun j (ch : child) ->
      if ch.addr <> Block_store.null && (!best < 0 || ch.top > n.children.(!best).top) then
        best := j)
    n.children;
  if !best >= 0 && Array.length segs < t.cap then begin
    let pulled, updated = extract_deepest t n.children.(!best) in
    let children = Array.copy n.children in
    children.(!best) <- updated;
    let segs = sorted_insert segs pulled in
    let node = { n with segs; children } in
    Store.write t.store c.addr node;
    let top =
      Array.fold_left
        (fun acc (s : Lseg.t) -> Float.max acc s.far_u)
        (Array.fold_left (fun acc ch -> Float.max acc ch.top) neg_infinity children)
        segs
    in
    (removed, { c with top; csize = c.csize - 1 })
  end
  else if Array.length segs = 0 then begin
    (* no children left: the subtree is gone *)
    Store.free t.store c.addr;
    (removed, no_child)
  end
  else begin
    Store.write t.store c.addr { n with segs };
    let top = Array.fold_left (fun acc (s : Lseg.t) -> Float.max acc s.far_u) neg_infinity segs in
    (removed, { c with top; csize = c.csize - 1 })
  end

let delete t (target : Lseg.t) =
  let rec del (c : child) : child option =
    (* None = not found; Some c' = deleted, updated router *)
    if c.addr = Block_store.null then None
    else if Lseg.compare_key target c.kmin < 0 || Lseg.compare_key target c.kmax > 0 then None
    else begin
      let n = Store.read t.store c.addr in
      let found = ref (-1) in
      Array.iteri
        (fun j (s : Lseg.t) -> if Lseg.compare_key s target = 0 then found := j)
        n.segs;
      if !found >= 0 then begin
        let segs = array_remove n.segs !found in
        let _, c' = finish_removal t c n segs target in
        Some c'
      end
      else if Array.length n.children = 0 then None
      else begin
        let slot = route n.splits target in
        match del n.children.(slot) with
        | None -> None
        | Some updated ->
            let children = Array.copy n.children in
            children.(slot) <- updated;
            Store.write t.store c.addr { n with children };
            let top =
              Array.fold_left
                (fun acc (s : Lseg.t) -> Float.max acc s.far_u)
                (Array.fold_left (fun acc ch -> Float.max acc ch.top) neg_infinity children)
                n.segs
            in
            Some { c with top; csize = c.csize - 1 }
      end
    end
  in
  match del t.root with
  | None -> false
  | Some c ->
      t.root <- c;
      true
