open Segdb_io

module Make (K : sig
  type t

  val compare : t -> t -> int
end) (V : sig
  type t
end) =
struct
  type key = K.t
  type value = V.t

  type node =
    | Leaf of { keys : key array; vals : value array; next : Block_store.addr }
    | Inner of { seps : key array; kids : Block_store.addr array }
  (* [kids] has one more element than [seps]. Invariant: every key in
     [kids.(i)] is >= [seps.(i-1)] (for i >= 1) and < [seps.(i)] is NOT
     required — separators are lower bounds of their right subtree and
     strict upper bounds of everything to their left at the time they
     were installed; deletions may make them stale, which preserves
     search correctness (see delete). *)

  module Store = Block_store.Make (struct
    type t = node
  end)

  type t = {
    store : Store.t;
    fanout : int;
    mutable root : Block_store.addr;
    mutable size : int;
  }

  let min_occupancy fanout = (fanout + 1) / 2

  (* ---- array editing helpers (persistent-style on small arrays) ---- *)

  let array_insert a i x =
    let n = Array.length a in
    let b = Array.make (n + 1) x in
    Array.blit a 0 b 0 i;
    Array.blit a i b (i + 1) (n - i);
    b

  let array_remove a i =
    let n = Array.length a in
    let b = Array.sub a 0 (n - 1) in
    Array.blit a (i + 1) b i (n - 1 - i);
    b

  let array_append = Array.append

  (* Number of separators <= key: index of the child to descend into. *)
  let child_index seps key =
    let lo = ref 0 and hi = ref (Array.length seps) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if K.compare seps.(mid) key <= 0 then lo := mid + 1 else hi := mid
    done;
    !lo

  (* Position of the first key >= key in a sorted key array. *)
  let lower_bound keys key =
    let lo = ref 0 and hi = ref (Array.length keys) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if K.compare keys.(mid) key < 0 then lo := mid + 1 else hi := mid
    done;
    !lo

  let create ?(fanout = 64) ~pool ~stats () =
    if fanout < 4 then invalid_arg "Bplus_tree.create: fanout must be >= 4";
    let store = Store.create ~name:"bplus" ~pool ~stats () in
    let root = Store.alloc store (Leaf { keys = [||]; vals = [||]; next = Block_store.null }) in
    { store; fanout; root; size = 0 }

  let size t = t.size
  let is_empty t = t.size = 0
  let block_count t = Store.block_count t.store

  (* ---------------- insertion ---------------- *)

  (* Returns [Some (sep, right_addr)] if the node split. *)
  let rec insert_rec t addr key value =
    match Store.read t.store addr with
    | Leaf { keys; vals; next } ->
        let i = lower_bound keys key in
        if i < Array.length keys && K.compare keys.(i) key = 0 then begin
          let vals = Array.copy vals in
          vals.(i) <- value;
          Store.write t.store addr (Leaf { keys; vals; next });
          None
        end
        else begin
          t.size <- t.size + 1;
          let keys = array_insert keys i key and vals = array_insert vals i value in
          if Array.length keys <= t.fanout then begin
            Store.write t.store addr (Leaf { keys; vals; next });
            None
          end
          else begin
            let mid = Array.length keys / 2 in
            let rkeys = Array.sub keys mid (Array.length keys - mid)
            and rvals = Array.sub vals mid (Array.length vals - mid) in
            let right = Store.alloc t.store (Leaf { keys = rkeys; vals = rvals; next }) in
            Store.write t.store addr
              (Leaf { keys = Array.sub keys 0 mid; vals = Array.sub vals 0 mid; next = right });
            Some (rkeys.(0), right)
          end
        end
    | Inner { seps; kids } -> (
        let i = child_index seps key in
        match insert_rec t kids.(i) key value with
        | None -> None
        | Some (sep, right) ->
            let seps = array_insert seps i sep and kids = array_insert kids (i + 1) right in
            if Array.length kids <= t.fanout then begin
              Store.write t.store addr (Inner { seps; kids });
              None
            end
            else begin
              let midk = Array.length kids / 2 in
              (* children [0, midk) stay; separator seps.(midk - 1) moves up;
                 children [midk, ..) move right. *)
              let up = seps.(midk - 1) in
              let rkids = Array.sub kids midk (Array.length kids - midk) in
              let rseps = Array.sub seps midk (Array.length seps - midk) in
              let right = Store.alloc t.store (Inner { seps = rseps; kids = rkids }) in
              Store.write t.store addr
                (Inner { seps = Array.sub seps 0 (midk - 1); kids = Array.sub kids 0 midk });
              Some (up, right)
            end)

  let insert t key value =
    match insert_rec t t.root key value with
    | None -> ()
    | Some (sep, right) ->
        let root = Store.alloc t.store (Inner { seps = [| sep |]; kids = [| t.root; right |] }) in
        t.root <- root

  (* ---------------- deletion ---------------- *)

  let node_entries = function
    | Leaf { keys; _ } -> Array.length keys
    | Inner { kids; _ } -> Array.length kids

  (* Fix a potential underflow of child [i] of the inner node [(seps, kids)];
     returns the updated (seps, kids) for the parent. *)
  let fix_underflow t seps kids i =
    let min_occ = min_occupancy t.fanout in
    let child = Store.read t.store kids.(i) in
    if node_entries child >= min_occ then (seps, kids)
    else begin
      let borrow_left li =
        let left = Store.read t.store kids.(li) in
        match (left, child) with
        | Leaf l, Leaf c ->
            let n = Array.length l.keys in
            let k = l.keys.(n - 1) and v = l.vals.(n - 1) in
            Store.write t.store kids.(li)
              (Leaf { keys = Array.sub l.keys 0 (n - 1); vals = Array.sub l.vals 0 (n - 1); next = l.next });
            Store.write t.store kids.(i)
              (Leaf { keys = array_insert c.keys 0 k; vals = array_insert c.vals 0 v; next = c.next });
            let seps = Array.copy seps in
            seps.(li) <- k;
            (seps, kids)
        | Inner l, Inner c ->
            let nk = Array.length l.kids in
            let moved = l.kids.(nk - 1) in
            let new_sep = l.seps.(nk - 2) in
            Store.write t.store kids.(li)
              (Inner { seps = Array.sub l.seps 0 (nk - 2); kids = Array.sub l.kids 0 (nk - 1) });
            Store.write t.store kids.(i)
              (Inner { seps = array_insert c.seps 0 seps.(li); kids = array_insert c.kids 0 moved });
            let seps = Array.copy seps in
            seps.(li) <- new_sep;
            (seps, kids)
        | _ -> assert false
      in
      let borrow_right ri =
        let right = Store.read t.store kids.(ri) in
        match (child, right) with
        | Leaf c, Leaf r ->
            let k = r.keys.(0) and v = r.vals.(0) in
            Store.write t.store kids.(ri)
              (Leaf { keys = array_remove r.keys 0; vals = array_remove r.vals 0; next = r.next });
            Store.write t.store kids.(i)
              (Leaf
                 {
                   keys = array_append c.keys [| k |];
                   vals = array_append c.vals [| v |];
                   next = c.next;
                 });
            let seps = Array.copy seps in
            seps.(i) <- (match Store.read t.store kids.(ri) with
                        | Leaf { keys; _ } -> keys.(0)
                        | Inner _ -> assert false);
            (seps, kids)
        | Inner c, Inner r ->
            let moved = r.kids.(0) in
            let new_sep = r.seps.(0) in
            Store.write t.store kids.(ri)
              (Inner { seps = array_remove r.seps 0; kids = array_remove r.kids 0 });
            Store.write t.store kids.(i)
              (Inner
                 {
                   seps = array_append c.seps [| seps.(i) |];
                   kids = array_append c.kids [| moved |];
                 });
            let seps = Array.copy seps in
            seps.(i) <- new_sep;
            (seps, kids)
        | _ -> assert false
      in
      let merge li ri =
        (* merge kids.(ri) into kids.(li); drop seps.(li) *)
        let left = Store.read t.store kids.(li) and right = Store.read t.store kids.(ri) in
        (match (left, right) with
        | Leaf l, Leaf r ->
            Store.write t.store kids.(li)
              (Leaf
                 {
                   keys = array_append l.keys r.keys;
                   vals = array_append l.vals r.vals;
                   next = r.next;
                 })
        | Inner l, Inner r ->
            Store.write t.store kids.(li)
              (Inner
                 {
                   seps = Array.concat [ l.seps; [| seps.(li) |]; r.seps ];
                   kids = array_append l.kids r.kids;
                 })
        | _ -> assert false);
        Store.free t.store kids.(ri);
        (array_remove seps li, array_remove kids ri)
      in
      let can_lend a =
        node_entries (Store.read t.store a) > min_occ
      in
      if i > 0 && can_lend kids.(i - 1) then borrow_left (i - 1)
      else if i < Array.length kids - 1 && can_lend kids.(i + 1) then borrow_right (i + 1)
      else if i > 0 then merge (i - 1) i
      else merge i (i + 1)
    end

  let rec delete_rec t addr key =
    match Store.read t.store addr with
    | Leaf { keys; vals; next } ->
        let i = lower_bound keys key in
        if i < Array.length keys && K.compare keys.(i) key = 0 then begin
          Store.write t.store addr
            (Leaf { keys = array_remove keys i; vals = array_remove vals i; next });
          t.size <- t.size - 1;
          true
        end
        else false
    | Inner { seps; kids } ->
        let i = child_index seps key in
        let present = delete_rec t kids.(i) key in
        if present then begin
          let seps, kids = fix_underflow t seps kids i in
          Store.write t.store addr (Inner { seps; kids })
        end;
        present

  let delete t key =
    let present = delete_rec t t.root key in
    (if present then
       match Store.read t.store t.root with
       | Inner { kids; _ } when Array.length kids = 1 ->
           let old = t.root in
           t.root <- kids.(0);
           Store.free t.store old
       | _ -> ());
    present

  (* ---------------- traversal ---------------- *)

  (* Leaf containing the first key >= key (or the last leaf). *)
  let rec descend_to_leaf t addr key =
    match Store.read t.store addr with
    | Leaf _ -> addr
    | Inner { seps; kids } -> descend_to_leaf t kids.(child_index seps key) key

  let iter_from t key f =
    let rec walk addr start =
      match Store.read t.store addr with
      | Inner _ -> assert false
      | Leaf { keys; vals; next } ->
          let n = Array.length keys in
          let rec scan i =
            if i >= n then if next = Block_store.null then () else walk next 0
            else
              match f keys.(i) vals.(i) with `Continue -> scan (i + 1) | `Stop -> ()
          in
          scan start
    in
    let leaf = descend_to_leaf t t.root key in
    match Store.read t.store leaf with
    | Inner _ -> assert false
    | Leaf { keys; next; _ } ->
        let i = lower_bound keys key in
        if i < Array.length keys then walk leaf i
        else if next <> Block_store.null then walk next 0

  let iter_from_pred t ~pred f =
    (* descend to the leaf holding the first key with [pred] true *)
    let rec descend addr =
      match Store.read t.store addr with
      | Leaf _ -> addr
      | Inner { seps; kids } ->
          (* last child whose separator is still in the false region *)
          let k = ref 0 in
          for i = 0 to Array.length seps - 1 do
            if not (pred seps.(i)) then k := i + 1
          done;
          descend kids.(!k)
    in
    let rec walk addr start =
      match Store.read t.store addr with
      | Inner _ -> assert false
      | Leaf { keys; vals; next } ->
          let n = Array.length keys in
          let rec scan i =
            if i >= n then if next = Block_store.null then () else walk next 0
            else
              match f keys.(i) vals.(i) with `Continue -> scan (i + 1) | `Stop -> ()
          in
          scan start
    in
    let leaf = descend t.root in
    match Store.read t.store leaf with
    | Inner _ -> assert false
    | Leaf { keys; next; _ } ->
        let n = Array.length keys in
        let lo = ref 0 and hi = ref n in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if pred keys.(mid) then hi := mid else lo := mid + 1
        done;
        if !lo < n then walk leaf !lo
        else if next <> Block_store.null then walk next 0

  let iter_range t ~lo ~hi f =
    let start_addr =
      match lo with
      | Some k -> descend_to_leaf t t.root k
      | None ->
          let rec leftmost addr =
            match Store.read t.store addr with
            | Leaf _ -> addr
            | Inner { kids; _ } -> leftmost kids.(0)
          in
          leftmost t.root
    in
    let above_lo k = match lo with None -> true | Some b -> K.compare k b >= 0 in
    let below_hi k = match hi with None -> true | Some b -> K.compare k b <= 0 in
    let rec walk addr =
      match Store.read t.store addr with
      | Inner _ -> assert false
      | Leaf { keys; vals; next } ->
          let n = Array.length keys in
          let stop = ref false in
          for i = 0 to n - 1 do
            if not !stop && above_lo keys.(i) then
              if below_hi keys.(i) then f keys.(i) vals.(i) else stop := true
          done;
          if (not !stop) && next <> Block_store.null then walk next
    in
    walk start_addr

  (* ---------------- invariants ---------------- *)

  let check_invariants t =
    let ok = ref true in
    let min_occ = min_occupancy t.fanout in
    let leaf_depth = ref None in
    let rec go addr depth ~is_root =
      match Store.read t.store addr with
      | Leaf { keys; vals; _ } ->
          (match !leaf_depth with
          | None -> leaf_depth := Some depth
          | Some d -> if d <> depth then ok := false);
          if Array.length keys <> Array.length vals then ok := false;
          if (not is_root) && Array.length keys < min_occ then ok := false;
          if Array.length keys > t.fanout then ok := false;
          for i = 1 to Array.length keys - 1 do
            if K.compare keys.(i - 1) keys.(i) >= 0 then ok := false
          done;
          if Array.length keys = 0 then [] else [ keys.(0); keys.(Array.length keys - 1) ]
      | Inner { seps; kids } ->
          if Array.length kids <> Array.length seps + 1 then ok := false;
          if (not is_root) && Array.length kids < min_occ then ok := false;
          if is_root && Array.length kids < 2 then ok := false;
          if Array.length kids > t.fanout then ok := false;
          for i = 1 to Array.length seps - 1 do
            if K.compare seps.(i - 1) seps.(i) >= 0 then ok := false
          done;
          Array.iteri
            (fun i kid ->
              let bounds = go kid (depth + 1) ~is_root:false in
              List.iter
                (fun k ->
                  if i > 0 && K.compare k seps.(i - 1) < 0 then ok := false;
                  if i < Array.length seps && K.compare k seps.(i) >= 0 then ok := false)
                bounds)
            kids;
          []
    in
    ignore (go t.root 1 ~is_root:true);
    (* leaf chain must visit leaves in key order: walk it and count *)
    let count = ref 0 in
    iter_range t ~lo:None ~hi:None (fun _ _ -> incr count);
    if !count <> t.size then ok := false;
    !ok
end
