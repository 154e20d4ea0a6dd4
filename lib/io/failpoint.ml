module Rng = Segdb_util.Rng

exception Injected_crash of string

type action = Eio | Short | Bit_flip | Torn | Crash

type site = { site_name : string; mutable hit_count : int }

type plan = { at : int; persistent : bool; action : action }

let plan ?(at = 1) ?(persistent = false) action = { at; persistent; action }

(* Registry state. [on] is the only thing a disarmed [fire] touches;
   everything else lives behind the mutex so arming from one domain is
   safe against sites firing on others. *)
let on = Atomic.make false
let lock = Mutex.create ()
let sites : (string, site) Hashtbl.t = Hashtbl.create 16
let plans : (string, plan * bool ref (* fired *)) Hashtbl.t = Hashtbl.create 16
let injection_rng = ref (Rng.create 0)

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let site name =
  locked (fun () ->
      match Hashtbl.find_opt sites name with
      | Some s -> s
      | None ->
          let s = { site_name = name; hit_count = 0 } in
          Hashtbl.add sites name s;
          s)

let name s = s.site_name

let registered () =
  locked (fun () -> Hashtbl.fold (fun n _ acc -> n :: acc) sites [])
  |> List.sort compare

let armed () = Atomic.get on

let arm ?(seed = 0) entries =
  locked (fun () ->
      Hashtbl.reset plans;
      Hashtbl.iter (fun _ s -> s.hit_count <- 0) sites;
      List.iter (fun (n, p) -> Hashtbl.replace plans n (p, ref false)) entries;
      injection_rng := Rng.create seed);
  Atomic.set on (entries <> [])

let disarm () =
  Atomic.set on false;
  locked (fun () -> Hashtbl.reset plans)

let fire s =
  if not (Atomic.get on) then None
  else
    locked (fun () ->
        s.hit_count <- s.hit_count + 1;
        match Hashtbl.find_opt plans s.site_name with
        | None -> None
        | Some (p, fired) ->
            if p.persistent then if s.hit_count >= p.at then Some p.action else None
            else if (not !fired) && s.hit_count >= p.at then begin
              fired := true;
              Some p.action
            end
            else None)

let hits s = locked (fun () -> s.hit_count)
let rng () = !injection_rng

(* ---------------- spec parsing ---------------- *)

let action_of_string = function
  | "eio" -> Some Eio
  | "short" -> Some Short
  | "flip" -> Some Bit_flip
  | "torn" -> Some Torn
  | "crash" -> Some Crash
  | _ -> None

let parse_entry entry =
  match String.index_opt entry '=' with
  | None -> Error (Printf.sprintf "%S: expected site=action[@hit][+]" entry)
  | Some 0 -> Error (Printf.sprintf "%S: empty site name" entry)
  | Some i -> (
      let site_name = String.sub entry 0 i in
      let rest = String.sub entry (i + 1) (String.length entry - i - 1) in
      let rest, persistent =
        match String.length rest with
        | 0 -> (rest, false)
        | n when rest.[n - 1] = '+' -> (String.sub rest 0 (n - 1), true)
        | _ -> (rest, false)
      in
      let act, at =
        match String.index_opt rest '@' with
        | None -> (rest, Ok 1)
        | Some j ->
            let at_s = String.sub rest (j + 1) (String.length rest - j - 1) in
            ( String.sub rest 0 j,
              match int_of_string_opt at_s with
              | Some n when n >= 1 -> Ok n
              | _ -> Error (Printf.sprintf "%S: bad hit number %S" entry at_s) )
      in
      match (action_of_string act, at) with
      | _, Error e -> Error e
      | None, _ -> Error (Printf.sprintf "%S: unknown action %S" entry act)
      | Some action, Ok at -> Ok (site_name, { at; persistent; action }))

let parse_spec spec =
  let entries =
    String.split_on_char ';' spec
    |> List.concat_map (String.split_on_char ',')
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  List.fold_left
    (fun acc e ->
      match (acc, parse_entry e) with
      | Error _, _ -> acc
      | _, Error m -> Error m
      | Ok l, Ok p -> Ok (p :: l))
    (Ok []) entries
  |> Result.map List.rev

let arm_from_env () =
  match Sys.getenv_opt "SEGDB_FAILPOINTS" with
  | None | Some "" -> ()
  | Some spec -> (
      let seed =
        match Sys.getenv_opt "SEGDB_FAILPOINT_SEED" with
        | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 0)
        | None -> 0
      in
      match parse_spec spec with
      | Ok entries -> arm ~seed entries
      | Error m ->
          Printf.eprintf "SEGDB_FAILPOINTS: %s\n%!" m;
          exit 2)

(* ---------------- hardened syscalls ---------------- *)

module Io = struct
  let c_retries = Segdb_obs.Metrics.counter Segdb_obs.Metrics.default "io.retries"

  let count_retry () =
    if Segdb_obs.Control.enabled () then Segdb_obs.Metrics.incr c_retries

  let max_eio_retries = 4
  let max_stalled_writes = 8

  (* Bounded retry with backoff. EINTR and EAGAIN are always retried
     (they are the kernel's, not the device's); EIO is retried
     [max_eio_retries] times with exponential backoff and then allowed
     to escape. [f] must be idempotent — the positional wrappers below
     are, by re-seeking on every attempt. *)
  let rec retrying ?(attempt = 0) f =
    try f () with
    | Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) when attempt < 100 ->
        count_retry ();
        retrying ~attempt:(attempt + 1) f
    | Unix.Unix_error (Unix.EIO, _, _) when attempt < max_eio_retries ->
        count_retry ();
        Unix.sleepf (1e-4 *. float_of_int (1 lsl attempt));
        retrying ~attempt:(attempt + 1) f

  let injected_eio op = Unix.Unix_error (Unix.EIO, op, "injected")

  (* A strict prefix length, drawn from the arming seed. *)
  let prefix_of len = if len <= 1 then 0 else Rng.int (rng ()) len

  let flip_bit buf ~len =
    if len > 0 then begin
      let r = rng () in
      let i = Rng.int r len in
      Bytes.set buf i (Char.chr (Char.code (Bytes.get buf i) lxor (1 lsl Rng.int r 8)))
    end

  let sp_fsync = site "fsync"

  let write_all ~site fd ~off buf =
    let len = Bytes.length buf in
    retrying (fun () ->
        (match fire site with
        | Some Crash -> raise (Injected_crash (name site))
        | Some Eio -> raise (injected_eio (name site))
        | Some Torn ->
            (* a strict prefix reaches the disk, then the plug is
               pulled: exactly the torn write the recovery paths must
               survive *)
            ignore (Unix.lseek fd off Unix.SEEK_SET);
            let k = prefix_of len in
            let put = ref 0 in
            while !put < k do
              put := !put + Unix.write fd buf !put (k - !put)
            done;
            raise (Injected_crash (name site ^ ".torn"))
        | Some Short ->
            ignore (Unix.lseek fd off Unix.SEEK_SET);
            let k = prefix_of len in
            let put = ref 0 in
            while !put < k do
              put := !put + Unix.write fd buf !put (k - !put)
            done;
            raise (injected_eio (name site ^ ".short"))
        | Some Bit_flip ->
            (* silent on-disk corruption: the write itself succeeds *)
            flip_bit buf ~len
        | None -> ());
        ignore (Unix.lseek fd off Unix.SEEK_SET);
        let put = ref 0 in
        let stalls = ref 0 in
        while !put < len do
          let n = Unix.write fd buf !put (len - !put) in
          if n = 0 then begin
            incr stalls;
            if !stalls > max_stalled_writes then
              raise (Unix.Unix_error (Unix.ENOSPC, name site, "persistent short write"))
          end
          else begin
            stalls := 0;
            put := !put + n
          end
        done)

  (* ---------------- socket wrappers ----------------

     Streams have no offset to rewind to, so the torn-write shape
     changes meaning: on a file, [Torn] models the process dying
     mid-write (Injected_crash); on a socket it models the *connection*
     dying mid-frame — a strict prefix reaches the wire and then the
     peer sees a reset. The process survives; the caller's job is to
     close the connection and let the other side retry. *)

  let sp_net_read = site "net.read"
  let sp_net_write = site "net.write"

  let recv fd buf ~pos ~len =
    let post = ref None in
    let n =
      retrying (fun () ->
          post := None;
          (match fire sp_net_read with
          | Some Crash -> raise (Injected_crash "net.read")
          | Some Eio -> raise (injected_eio "net.read")
          | Some ((Short | Bit_flip | Torn) as a) -> post := Some a
          | None -> ());
          Unix.read fd buf pos len)
    in
    match !post with
    | Some (Short | Torn) -> prefix_of n
    | Some Bit_flip ->
        if n > 0 then begin
          let r = rng () in
          let i = pos + Rng.int r n in
          Bytes.set buf i
            (Char.chr (Char.code (Bytes.get buf i) lxor (1 lsl Rng.int r 8)))
        end;
        n
    | _ -> n

  let send_all fd buf ~pos ~len =
    let limit = pos + len in
    let put = ref pos in
    let stalls = ref 0 in
    while !put < limit do
      let n =
        retrying (fun () ->
            match fire sp_net_write with
            | Some Crash -> raise (Injected_crash "net.write")
            | Some Eio -> raise (injected_eio "net.write")
            | Some Torn ->
                (* a strict prefix of the frame reaches the wire, then
                   the connection is torn down under the writer *)
                let k = prefix_of (limit - !put) in
                let sent = ref 0 in
                while !sent < k do
                  sent := !sent + Unix.write fd buf (!put + !sent) (k - !sent)
                done;
                raise
                  (Unix.Unix_error (Unix.ECONNRESET, "net.write", "torn frame (injected)"))
            | Some Short ->
                (* partial transfer: perfectly legal on a socket, the
                   outer loop just continues from where it got *)
                Unix.write fd buf !put (prefix_of (limit - !put))
            | Some Bit_flip ->
                (* corrupt one bit of what is about to hit the wire;
                   the peer's frame CRC must catch it *)
                if limit - !put > 0 then begin
                  let r = rng () in
                  let i = !put + Rng.int r (limit - !put) in
                  Bytes.set buf i
                    (Char.chr (Char.code (Bytes.get buf i) lxor (1 lsl Rng.int r 8)))
                end;
                Unix.write fd buf !put (limit - !put)
            | None -> Unix.write fd buf !put (limit - !put))
      in
      if n = 0 then begin
        incr stalls;
        if !stalls > max_stalled_writes then
          raise (Unix.Unix_error (Unix.EPIPE, "net.write", "persistent zero-byte write"))
      end
      else begin
        stalls := 0;
        put := !put + n
      end
    done

  let fsync ?(site = sp_fsync) fd =
    retrying (fun () ->
        (match fire site with
        | Some Crash -> raise (Injected_crash (name site))
        | Some Eio -> raise (injected_eio (name site))
        | Some (Short | Bit_flip | Torn) | None -> ());
        Unix.fsync fd)
end
