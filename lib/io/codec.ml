exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

module W = struct
  let u8 b v = Buffer.add_uint8 b (v land 0xFF)
  let u32 b v = Buffer.add_int32_le b (Int32.of_int v)
  let u64 b v = Buffer.add_int64_le b (Int64.of_int v)
  let f64 b v = Buffer.add_int64_le b (Int64.bits_of_float v)

  let str b s =
    u32 b (String.length s);
    Buffer.add_string b s
end

module R = struct
  type t = { data : string; mutable pos : int; stop : int }

  let of_string ?(pos = 0) ?len data =
    let stop = match len with Some n -> pos + n | None -> String.length data in
    if pos < 0 || pos > stop || stop > String.length data then
      invalid_arg "Codec.R.of_string: range out of bounds";
    { data; pos; stop }

  let pos r = r.pos
  let remaining r = r.stop - r.pos

  let need r n =
    if remaining r < n then
      corrupt "truncated input: need %d bytes at offset %d, have %d" n r.pos (remaining r)

  let u8 r =
    need r 1;
    let v = String.get_uint8 r.data r.pos in
    r.pos <- r.pos + 1;
    v

  let u32 r =
    need r 4;
    let v = String.get_int32_le r.data r.pos in
    r.pos <- r.pos + 4;
    Int32.to_int v land 0xFFFFFFFF

  let u64 r =
    need r 8;
    let v = String.get_int64_le r.data r.pos in
    r.pos <- r.pos + 8;
    Int64.to_int v

  let f64 r =
    need r 8;
    let v = String.get_int64_le r.data r.pos in
    r.pos <- r.pos + 8;
    Int64.float_of_bits v

  let raw r n =
    if n < 0 then corrupt "negative length %d at offset %d" n r.pos;
    need r n;
    let s = String.sub r.data r.pos n in
    r.pos <- r.pos + n;
    s

  let str r =
    let n = u32 r in
    raw r n
end

type 'a t = { write : Buffer.t -> 'a -> unit; read : R.t -> 'a }

let int = { write = W.u64; read = R.u64 }
let float = { write = W.f64; read = R.f64 }

let bool =
  {
    write = (fun b v -> W.u8 b (if v then 1 else 0));
    read =
      (fun r ->
        match R.u8 r with
        | 0 -> false
        | 1 -> true
        | v -> corrupt "invalid bool byte %d" v);
  }

let string = { write = W.str; read = R.str }

let pair a b =
  {
    write =
      (fun buf (x, y) ->
        a.write buf x;
        b.write buf y);
    read =
      (fun r ->
        let x = a.read r in
        let y = b.read r in
        (x, y));
  }

let array a =
  {
    write =
      (fun buf v ->
        W.u32 buf (Array.length v);
        Array.iter (a.write buf) v);
    read =
      (fun r ->
        let n = R.u32 r in
        (* every element costs at least one byte, so a huge count is
           corruption, not a huge allocation *)
        if n > R.remaining r then
          corrupt "array length %d exceeds remaining %d bytes" n (R.remaining r);
        if n = 0 then [||]
        else begin
          let out = Array.make n (a.read r) in
          for i = 1 to n - 1 do
            out.(i) <- a.read r
          done;
          out
        end);
  }

let list a =
  let arr = array a in
  {
    write =
      (fun buf v ->
        W.u32 buf (List.length v);
        List.iter (a.write buf) v);
    read = (fun r -> Array.to_list (arr.read r));
  }

let encode c v =
  let b = Buffer.create 256 in
  c.write b v;
  Buffer.contents b

let decode c s =
  let r = R.of_string s in
  let v = c.read r in
  if R.remaining r <> 0 then corrupt "%d trailing bytes after decode" (R.remaining r);
  v
