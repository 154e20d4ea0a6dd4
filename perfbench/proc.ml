(* Reading another process through /proc: CPU time, context switches,
   I/O syscalls and peak RSS, summed over its threads where the kernel
   keeps them per thread. *)

type sample = {
  cpu_ns : int;  (** on-CPU time of every live thread (schedstat) *)
  voluntary : int;
  involuntary : int;
  syscalls : int;  (** syscr + syscw *)
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> In_channel.input_all ic)

(* the integer after "key:" in a "key: value" file *)
let field text key =
  let prefix = key ^ ":" in
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         if String.starts_with ~prefix line then
           let v = String.sub line (String.length prefix) (String.length line - String.length prefix) in
           match String.split_on_char ' ' (String.trim (String.map (fun c -> if c = '\t' then ' ' else c) v)) with
           | n :: _ -> int_of_string_opt n
           | [] -> None
         else None)
  |> Option.value ~default:0

let sample pid =
  let cpu_ns = ref 0 and voluntary = ref 0 and involuntary = ref 0 in
  Array.iter
    (fun tid ->
      let dir = Printf.sprintf "/proc/%d/task/%s" pid tid in
      match (read_file (dir ^ "/schedstat"), read_file (dir ^ "/status")) with
      | sched, status ->
          cpu_ns := !cpu_ns + Scanf.sscanf sched "%d" Fun.id;
          voluntary := !voluntary + field status "voluntary_ctxt_switches";
          involuntary := !involuntary + field status "nonvoluntary_ctxt_switches"
      | exception Sys_error _ -> () (* the thread ended between readdir and read *))
    (Sys.readdir (Printf.sprintf "/proc/%d/task" pid));
  let io = read_file (Printf.sprintf "/proc/%d/io" pid) in
  { cpu_ns = !cpu_ns; voluntary = !voluntary; involuntary = !involuntary;
    syscalls = field io "syscr" + field io "syscw" }

let diff a b =
  {
    cpu_ns = b.cpu_ns - a.cpu_ns;
    voluntary = b.voluntary - a.voluntary;
    involuntary = b.involuntary - a.involuntary;
    syscalls = b.syscalls - a.syscalls;
  }

(* peak resident set, in kB *)
let hwm_kb pid = field (read_file (Printf.sprintf "/proc/%d/status" pid)) "VmHWM"

(* A kernel CPU list such as "0-3,6", as CPU numbers. *)
let cpu_list text =
  String.split_on_char ',' (String.trim text)
  |> List.concat_map (fun r ->
         match List.map int_of_string (String.split_on_char '-' r) with
         | [ c ] -> [ c ]
         | [ lo; hi ] when lo <= hi -> List.init (hi - lo + 1) (fun i -> lo + i)
         | _ | (exception Failure _) -> invalid_arg (Printf.sprintf "Proc.cpu_list: %S" text))

(* The CPUs this process may run on, as the kernel lists them and as
   numbers; children inherit them. *)
let allowed_cpus () =
  let prefix = "Cpus_allowed_list:" in
  match
    List.find_opt (String.starts_with ~prefix)
      (String.split_on_char '\n' (read_file "/proc/self/status"))
  with
  | Some line ->
      let v = String.trim (String.sub line (String.length prefix) (String.length line - String.length prefix)) in
      (v, cpu_list v)
  | None -> failwith "/proc/self/status has no Cpus_allowed_list"

(* Ticks the hypervisor ran something else while these CPUs wanted to
   run, and all ticks, summed over [cpus] (/proc/stat). *)
let steal cpus =
  let text = read_file "/proc/stat" in
  List.fold_left
    (fun (st, all) line ->
      match String.split_on_char ' ' line |> List.filter (( <> ) "") with
      | name :: fields
        when String.starts_with ~prefix:"cpu" name
             && List.exists
                  (fun c -> int_of_string_opt (String.sub name 3 (String.length name - 3)) = Some c)
                  cpus ->
          let v = List.map int_of_string fields in
          (st + List.nth v 7, all + List.fold_left ( + ) 0 v)
      | _ -> (st, all))
    (0, 0)
    (String.split_on_char '\n' text)
