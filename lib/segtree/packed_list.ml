open Segdb_io

type pos = { paddr : int; pbase : int; poffset : int }

module Make (E : sig
  type t
end) =
struct
  type node =
    | Data of { entries : E.t array; prev : Block_store.addr; next : Block_store.addr }
    | Index of {
        firsts : E.t array; (* first entry of each child subtree *)
        offsets : int array; (* global position of each child's first entry *)
        kids : Block_store.addr array;
      }

  module Store = Block_store.Make (struct
    type t = node
  end)

  type t = {
    store : Store.t;
    cap : int;
    root : Block_store.addr; (* null iff empty *)
    length : int;
  }

  let length t = t.length
  let block_count t = Store.block_count t.store

  let build ?(block_capacity = 64) ~pool ~stats entries =
    if block_capacity < 2 then invalid_arg "Packed_list.build: block_capacity must be >= 2";
    let store = Store.create ~name:"plist" ~pool ~stats () in
    let n = Array.length entries in
    if n = 0 then { store; cap = block_capacity; root = Block_store.null; length = 0 }
    else begin
      let cap = block_capacity in
      let nblocks = (n + cap - 1) / cap in
      (* data level, chained both ways *)
      let addrs = Array.make nblocks Block_store.null in
      for b = 0 to nblocks - 1 do
        let lo = b * cap in
        let len = min cap (n - lo) in
        addrs.(b) <-
          Store.alloc store
            (Data { entries = Array.sub entries lo len; prev = Block_store.null; next = Block_store.null })
      done;
      for b = 0 to nblocks - 1 do
        let prev = if b = 0 then Block_store.null else addrs.(b - 1) in
        let next = if b = nblocks - 1 then Block_store.null else addrs.(b + 1) in
        match Store.read store addrs.(b) with
        | Data d -> Store.write store addrs.(b) (Data { d with prev; next })
        | Index _ -> assert false
      done;
      (* index levels *)
      let rec build_index (level : (Block_store.addr * E.t * int) array) =
        if Array.length level = 1 then
          let a, _, _ = level.(0) in
          a
        else begin
          let m = Array.length level in
          let nidx = (m + cap - 1) / cap in
          let next_level =
            Array.init nidx (fun b ->
                let lo = b * cap in
                let len = min cap (m - lo) in
                let firsts = Array.init len (fun i -> let _, e, _ = level.(lo + i) in e) in
                let offsets = Array.init len (fun i -> let _, _, o = level.(lo + i) in o) in
                let kids = Array.init len (fun i -> let a, _, _ = level.(lo + i) in a) in
                let addr = Store.alloc store (Index { firsts; offsets; kids }) in
                (addr, firsts.(0), offsets.(0)))
          in
          build_index next_level
        end
      in
      let data_level =
        Array.init nblocks (fun b -> (addrs.(b), entries.(b * cap), b * cap))
      in
      let root = build_index data_level in
      { store; cap = block_capacity; root; length = n }
    end

  (* Locate the data block containing global position [i]; returns its
     address, starting global position, entries, and successor. *)
  let rec locate t addr base i =
    match Store.read t.store addr with
    | Data { entries; next; _ } -> (addr, base, entries, next)
    | Index { offsets; kids; _ } ->
        (* last child whose offset <= i *)
        let k = ref 0 in
        for j = 1 to Array.length offsets - 1 do
          if offsets.(j) <= i then k := j
        done;
        locate t kids.(!k) offsets.(!k) i

  let get t i =
    if i < 0 || i >= t.length then invalid_arg "Packed_list.get: out of bounds";
    let _, base, entries, _ = locate t t.root 0 i in
    entries.(i - base)

  let search t ~cmp =
    if t.length = 0 then 0
    else begin
      let rec go addr base =
        match Store.read t.store addr with
        | Data { entries; _ } ->
            let lo = ref 0 and hi = ref (Array.length entries) in
            while !lo < !hi do
              let mid = (!lo + !hi) / 2 in
              if cmp entries.(mid) < 0 then lo := mid + 1 else hi := mid
            done;
            base + !lo
        | Index { firsts; offsets; kids; _ } ->
            (* descend into the last child whose first entry is still
               before the boundary; the boundary position may equal the
               next child's first *)
            let k = ref 0 in
            for j = 1 to Array.length firsts - 1 do
              if cmp firsts.(j) < 0 then k := j
            done;
            go kids.(!k) offsets.(!k)
      in
      go t.root 0
    end

  let iter_forward t i f =
    if t.length > 0 && i < t.length then begin
      let i = max i 0 in
      let _, base0, entries0, next0 = locate t t.root 0 i in
      let rec go base entries next start =
        let n = Array.length entries in
        let rec scan j =
          if j >= n then
            if next = Block_store.null then ()
            else begin
              match Store.read t.store next with
              | Data d -> go (base + n) d.entries d.next 0
              | Index _ -> assert false
            end
          else
            match f (base + j) entries.(j) with `Continue -> scan (j + 1) | `Stop -> ()
        in
        scan start
      in
      go base0 entries0 next0 (i - base0)
    end

  let pos_of t i =
    if t.length = 0 || i < 0 || i > t.length then invalid_arg "Packed_list.pos_of";
    let i' = min i (t.length - 1) in
    let addr, base, _, _ = locate t t.root 0 i' in
    (* i = length lands one past the end of the last block *)
    { paddr = addr; pbase = base; poffset = i - base }

  let walk_forward t (p : pos) f =
    let rec go addr start =
      if addr <> Block_store.null then
        match Store.read t.store addr with
        | Index _ -> assert false
        | Data { entries; next; _ } ->
            let n = Array.length entries in
            let rec scan j =
              if j >= n then go next 0
              else match f entries.(j) with `Continue -> scan (j + 1) | `Stop -> ()
            in
            scan start
    in
    if t.length > 0 then go p.paddr (max 0 p.poffset)

  let walk_backward t (p : pos) f =
    let rec go addr start =
      if addr <> Block_store.null then
        match Store.read t.store addr with
        | Index _ -> assert false
        | Data { entries; prev; _ } ->
            let rec scan j =
              if j < 0 then go prev max_int
              else
                let j = min j (Array.length entries - 1) in
                match f entries.(j) with `Continue -> scan (j - 1) | `Stop -> ()
            in
            scan (min start (Array.length entries - 1))
    in
    if t.length > 0 && (p.poffset > 0 || p.pbase > 0) then begin
      (* start strictly before the position *)
      if p.poffset > 0 then go p.paddr (p.poffset - 1)
      else
        match Store.read t.store p.paddr with
        | Data { prev; _ } -> go prev max_int
        | Index _ -> assert false
    end

  let to_array t =
    if t.length = 0 then [||]
    else begin
      let out = ref [] in
      iter_forward t 0 (fun _ e ->
          out := e :: !out;
          `Continue);
      Array.of_list (List.rev !out)
    end

  let free t =
    let rec go addr =
      if addr <> Block_store.null then begin
        (match Store.read t.store addr with
        | Data _ -> ()
        | Index { kids; _ } -> Array.iter go kids);
        Store.free t.store addr
      end
    in
    go t.root
end
