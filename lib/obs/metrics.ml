(* The metrics registry: named counters, gauges and histograms.

   Counters and gauges are Atomic ints, safe to bump from any domain
   once the handle is in hand. Histograms are plain (single-owner)
   structures, so every access to a *registry-owned* histogram goes
   through the registry mutex ([observe], [merge_into], and the
   snapshot functions); a domain that records at high rate can keep a
   private registry and fold it in with one [merge_into] at the end.

   Handle lookup is get-or-create under the mutex; probe sites resolve
   their handles once at module initialization, so the steady-state
   cost of a counter bump is one atomic load (the Control flag) plus
   one atomic add. *)

type counter = int Atomic.t
type gauge = int Atomic.t

type t = {
  mu : Mutex.t;
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, Histogram.t) Hashtbl.t;
}

let create () =
  {
    mu = Mutex.create ();
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 64;
  }

let default = create ()

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let get_or_create table name mk =
  match Hashtbl.find_opt table name with
  | Some v -> v
  | None ->
      let v = mk () in
      Hashtbl.add table name v;
      v

let counter t name = locked t (fun () -> get_or_create t.counters name (fun () -> Atomic.make 0))
let gauge t name = locked t (fun () -> get_or_create t.gauges name (fun () -> Atomic.make 0))

let incr c = Atomic.incr c
let add c n = ignore (Atomic.fetch_and_add c n)
let value c = Atomic.get c
let set_gauge g v = Atomic.set g v

let observe t name v =
  locked t (fun () ->
      Histogram.record (get_or_create t.histograms name Histogram.create) v)

let merge_histogram t name src =
  locked t (fun () ->
      Histogram.merge_into ~into:(get_or_create t.histograms name Histogram.create) src)

let histogram t name =
  locked t (fun () -> Option.map Histogram.copy (Hashtbl.find_opt t.histograms name))

let reset t =
  locked t (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c 0) t.counters;
      Hashtbl.iter (fun _ g -> Atomic.set g 0) t.gauges;
      Hashtbl.iter (fun _ h -> Histogram.clear h) t.histograms)

let sorted_bindings table value_of =
  Hashtbl.fold (fun name v acc -> (name, value_of v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let counters t = locked t (fun () -> sorted_bindings t.counters Atomic.get)
let gauges t = locked t (fun () -> sorted_bindings t.gauges Atomic.get)
let histograms t = locked t (fun () -> sorted_bindings t.histograms Histogram.copy)

(* Merge by name: counters and gauges add, histograms merge pointwise.
   [src] is left untouched; both registries may keep being used. [src]
   is snapshotted before [into] is locked, so the two locks are never
   held together. *)
let merge_into ~into src =
  let cs = counters src and gs = gauges src and hs = histograms src in
  List.iter (fun (name, v) -> if v <> 0 then add (counter into name) v) cs;
  List.iter (fun (name, v) -> if v <> 0 then add (gauge into name) v) gs;
  List.iter (fun (name, h) -> merge_histogram into name h) hs

(* ---------------- runtime gauges ---------------- *)

let publish name v = set_gauge (gauge default name) v

let refresh_gauges () =
  let st = Gc.quick_stat () in
  publish "runtime.heap_words" st.Gc.heap_words;
  publish "runtime.minor_collections" st.Gc.minor_collections;
  publish "runtime.major_collections" st.Gc.major_collections;
  publish "runtime.compactions" st.Gc.compactions;
  match Sys.readdir "/proc/self/fd" with
  | entries -> publish "runtime.open_fds" (Array.length entries)
  | exception Sys_error _ -> ()
