open Segdb_io
open Segdb_geom

type node =
  | Leaf of (Bbox.t * Segment.t) array
  | Inner of (Bbox.t * Block_store.addr) array

module Store = Block_store.Make (struct
  type t = node
end)

type t = {
  store : Store.t;
  cap : int;
  mutable root : Block_store.addr; (* null iff empty *)
  mutable size : int;
  mutable height : int;
}

let min_occ cap = max 1 (cap * 2 / 5)

let create ?(node_capacity = 64) ~pool ~stats () =
  if node_capacity < 4 then invalid_arg "Rtree.create: node_capacity must be >= 4";
  let store = Store.create ~name:"rtree" ~pool ~stats () in
  { store; cap = node_capacity; root = Block_store.null; size = 0; height = 0 }

let size t = t.size
let block_count t = Store.block_count t.store

let node_bbox = function
  | Leaf entries ->
      Array.fold_left (fun acc (b, _) -> Bbox.union acc b) (fst entries.(0)) entries
  | Inner entries ->
      Array.fold_left (fun acc (b, _) -> Bbox.union acc b) (fst entries.(0)) entries

(* ---------------- STR bulk loading ---------------- *)

let bulk_load ?(node_capacity = 64) ~pool ~stats segs =
  let t = create ~node_capacity ~pool ~stats () in
  let n = Array.length segs in
  if n = 0 then t
  else begin
    let cap = t.cap in
    (* Pack rectangles into nodes of [cap] by x-slices then y-order. *)
    let leaves =
      let entries = Array.map (fun s -> (Bbox.of_segment s, s)) segs in
      let nnodes = (n + cap - 1) / cap in
      let nslices = int_of_float (ceil (sqrt (float_of_int nnodes))) in
      let slice_sz = nslices * cap in
      Array.sort
        (fun (a, _) (b, _) -> compare (fst (Bbox.center a)) (fst (Bbox.center b)))
        entries;
      let acc = ref [] in
      let i = ref 0 in
      while !i < n do
        let len = min slice_sz (n - !i) in
        let slice = Array.sub entries !i len in
        Array.sort
          (fun (a, _) (b, _) -> compare (snd (Bbox.center a)) (snd (Bbox.center b)))
          slice;
        let j = ref 0 in
        while !j < len do
          let l = min cap (len - !j) in
          let chunk = Array.sub slice !j l in
          let addr = Store.alloc t.store (Leaf chunk) in
          let bbox = Array.fold_left (fun a (b, _) -> Bbox.union a b) (fst chunk.(0)) chunk in
          acc := (bbox, addr) :: !acc;
          j := !j + l
        done;
        i := !i + len
      done;
      Array.of_list (List.rev !acc)
    in
    let rec pack level (nodes : (Bbox.t * Block_store.addr) array) =
      if Array.length nodes = 1 then begin
        t.root <- snd nodes.(0);
        t.height <- level
      end
      else begin
        let m = Array.length nodes in
        let nnodes = (m + cap - 1) / cap in
        let nslices = int_of_float (ceil (sqrt (float_of_int nnodes))) in
        let slice_sz = nslices * cap in
        Array.sort (fun (a, _) (b, _) -> compare (fst (Bbox.center a)) (fst (Bbox.center b))) nodes;
        let acc = ref [] in
        let i = ref 0 in
        while !i < m do
          let len = min slice_sz (m - !i) in
          let slice = Array.sub nodes !i len in
          Array.sort (fun (a, _) (b, _) -> compare (snd (Bbox.center a)) (snd (Bbox.center b))) slice;
          let j = ref 0 in
          while !j < len do
            let l = min cap (len - !j) in
            let chunk = Array.sub slice !j l in
            let addr = Store.alloc t.store (Inner chunk) in
            let bbox = Array.fold_left (fun a (b, _) -> Bbox.union a b) (fst chunk.(0)) chunk in
            acc := (bbox, addr) :: !acc;
            j := !j + l
          done;
          i := !i + len
        done;
        pack (level + 1) (Array.of_list (List.rev !acc))
      end
    in
    pack 1 leaves;
    t.size <- n;
    t
  end

(* ---------------- query ---------------- *)

let query t (q : Vquery.t) ~f =
  let qbox = Bbox.of_vquery q in
  let rec go addr =
    match Store.read t.store addr with
    | Leaf entries ->
        Array.iter (fun (b, s) -> if Bbox.intersects b qbox && Vquery.matches q s then f s) entries
    | Inner entries ->
        Array.iter (fun (b, kid) -> if Bbox.intersects b qbox then go kid) entries
  in
  if t.root <> Block_store.null then go t.root

let query_list t q =
  let acc = ref [] in
  query t q ~f:(fun s -> acc := s :: !acc);
  !acc

(* ---------------- insertion ---------------- *)

(* Quadratic split (Guttman): pick the pair wasting the most area as
   seeds, then assign entries to the group whose bbox grows least. *)
let quadratic_split (type e) (entries : (Bbox.t * e) array) =
  let n = Array.length entries in
  let seed1 = ref 0 and seed2 = ref 1 and worst = ref neg_infinity in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let bi = fst entries.(i) and bj = fst entries.(j) in
      let waste = Bbox.area (Bbox.union bi bj) -. Bbox.area bi -. Bbox.area bj in
      if waste > !worst then begin
        worst := waste;
        seed1 := i;
        seed2 := j
      end
    done
  done;
  let g1 = ref [ entries.(!seed1) ] and g2 = ref [ entries.(!seed2) ] in
  let b1 = ref (fst entries.(!seed1)) and b2 = ref (fst entries.(!seed2)) in
  let min_target = min_occ n in
  let rest =
    Array.to_list entries
    |> List.filteri (fun i _ -> i <> !seed1 && i <> !seed2)
  in
  List.iteri
    (fun idx ((b, _) as e) ->
      let remaining = List.length rest - idx in
      (* force-finish a group that must take everything left to reach
         minimum occupancy *)
      if List.length !g1 + remaining <= min_target then begin
        g1 := e :: !g1;
        b1 := Bbox.union !b1 b
      end
      else if List.length !g2 + remaining <= min_target then begin
        g2 := e :: !g2;
        b2 := Bbox.union !b2 b
      end
      else begin
        let e1 = Bbox.enlargement !b1 b and e2 = Bbox.enlargement !b2 b in
        if e1 < e2 || (e1 = e2 && Bbox.area !b1 <= Bbox.area !b2) then begin
          g1 := e :: !g1;
          b1 := Bbox.union !b1 b
        end
        else begin
          g2 := e :: !g2;
          b2 := Bbox.union !b2 b
        end
      end)
    rest;
  (Array.of_list !g1, Array.of_list !g2)

let array_push a x = Array.append a [| x |]

(* Insert into subtree; returns the subtree's new bbox and an optional
   (bbox, addr) of a freshly split-off sibling. *)
let rec insert_rec t addr (box : Bbox.t) (s : Segment.t) =
  match Store.read t.store addr with
  | Leaf entries ->
      let entries = array_push entries (box, s) in
      if Array.length entries <= t.cap then begin
        Store.write t.store addr (Leaf entries);
        (node_bbox (Leaf entries), None)
      end
      else begin
        let g1, g2 = quadratic_split entries in
        Store.write t.store addr (Leaf g1);
        let sib = Store.alloc t.store (Leaf g2) in
        (node_bbox (Leaf g1), Some (node_bbox (Leaf g2), sib))
      end
  | Inner entries ->
      (* least-enlargement child *)
      let best = ref 0 and best_enl = ref infinity and best_area = ref infinity in
      Array.iteri
        (fun i (b, _) ->
          let enl = Bbox.enlargement b box and area = Bbox.area b in
          if enl < !best_enl || (enl = !best_enl && area < !best_area) then begin
            best := i;
            best_enl := enl;
            best_area := area
          end)
        entries;
      let _, kid = entries.(!best) in
      let kbox, split = insert_rec t kid box s in
      let entries = Array.copy entries in
      entries.(!best) <- (kbox, kid);
      let entries = match split with None -> entries | Some e -> array_push entries e in
      if Array.length entries <= t.cap then begin
        Store.write t.store addr (Inner entries);
        (node_bbox (Inner entries), None)
      end
      else begin
        let g1, g2 = quadratic_split entries in
        Store.write t.store addr (Inner g1);
        let sib = Store.alloc t.store (Inner g2) in
        (node_bbox (Inner g1), Some (node_bbox (Inner g2), sib))
      end

let insert t s =
  let box = Bbox.of_segment s in
  if t.root = Block_store.null then begin
    t.root <- Store.alloc t.store (Leaf [| (box, s) |]);
    t.height <- 1
  end
  else begin
    let rbox, split = insert_rec t t.root box s in
    match split with
    | None -> ()
    | Some (sbox, sib) ->
        let root = Store.alloc t.store (Inner [| (rbox, t.root); (sbox, sib) |]) in
        t.root <- root;
        t.height <- t.height + 1
  end;
  t.size <- t.size + 1

(* ---------------- deletion ---------------- *)

let array_remove a i =
  let n = Array.length a in
  let b = Array.sub a 0 (n - 1) in
  Array.blit a (i + 1) b i (n - 1 - i);
  b

(* Remove [s] from the subtree; [`Gone] = not found here, [`Removed r]
   with [r = None] when the subtree emptied, or its refreshed entry.
   Underfull nodes are tolerated (no re-insertion pass): queries stay
   exact; occupancy degrades only under heavy deletion, which the
   invariant checker and benches account for. *)
let rec delete_rec t addr box (s : Segment.t) =
  match Store.read t.store addr with
  | Leaf entries -> (
      match Array.find_index (fun (_, c) -> Segment.equal c s) entries with
      | Some i ->
          let out = array_remove entries i in
          if Array.length out = 0 then begin
            Store.free t.store addr;
            `Removed None
          end
          else begin
            Store.write t.store addr (Leaf out);
            `Removed (Some (node_bbox (Leaf out), addr))
          end
      | None -> `Gone)
  | Inner entries ->
      let n = Array.length entries in
      let result = ref `Gone in
      let i = ref 0 in
      while !result = `Gone && !i < n do
        let b, kid = entries.(!i) in
        if Bbox.contains b box then begin
          match delete_rec t kid box s with
          | `Gone -> ()
          | `Removed res ->
              let entries =
                match res with
                | Some e ->
                    let entries = Array.copy entries in
                    entries.(!i) <- e;
                    entries
                | None -> array_remove entries !i
              in
              if Array.length entries = 0 then begin
                Store.free t.store addr;
                result := `Removed None
              end
              else begin
                Store.write t.store addr (Inner entries);
                result := `Removed (Some (node_bbox (Inner entries), addr))
              end
        end;
        incr i
      done;
      !result

let delete t (s : Segment.t) =
  if t.root = Block_store.null then false
  else
    match delete_rec t t.root (Bbox.of_segment s) s with
    | `Gone -> false
    | `Removed res ->
        t.size <- t.size - 1;
        (match res with
        | None ->
            t.root <- Block_store.null;
            t.height <- 0
        | Some (_, addr) ->
            t.root <- addr;
            (* collapse single-child chains at the root *)
            let rec collapse () =
              match Store.read t.store t.root with
              | Inner [| (_, only) |] ->
                  Store.free t.store t.root;
                  t.root <- only;
                  t.height <- t.height - 1;
                  collapse ()
              | _ -> ()
            in
            collapse ());
        true

(* ---------------- invariants ---------------- *)

let check_invariants t =
  let ok = ref true in
  let fail () = ok := false in
  let count = ref 0 in
  let rec go addr depth ~is_root =
    match Store.read t.store addr with
    | Leaf entries ->
        if depth <> t.height then fail ();
        if Array.length entries > t.cap then fail ();
        if (not is_root) && Array.length entries < 1 then fail ();
        count := !count + Array.length entries;
        Array.iter (fun (b, s) -> if not (Bbox.contains b (Bbox.of_segment s)) then fail ()) entries;
        node_bbox (Leaf entries)
    | Inner entries ->
        if Array.length entries > t.cap then fail ();
        if is_root && Array.length entries < 2 then fail ();
        if Array.length entries < 1 then fail ();
        Array.iter
          (fun (b, kid) ->
            let actual = go kid (depth + 1) ~is_root:false in
            if not (Bbox.contains b actual) then fail ())
          entries;
        node_bbox (Inner entries)
  in
  if t.root <> Block_store.null then ignore (go t.root 1 ~is_root:true)
  else if t.size <> 0 then fail ();
  if !count <> t.size && t.root <> Block_store.null then fail ();
  !ok
