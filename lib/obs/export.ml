(* Exporters: the three read-out formats of a metrics registry, plus
   the textual rendering of a trace dump.

   - [text]: aligned tables (via Segdb_util.Table) for humans;
   - [json]: one self-contained object for tooling and bench diffs;
   - [prometheus]: the text exposition format — counters and gauges as
     single samples, histograms as cumulative [_bucket{le="..."}]
     series with [_sum]/[_count], names sanitized to the metric
     charset and prefixed [segdb_]. *)

module Table = Segdb_util.Table

let pcts = [ (0.50, "p50"); (0.90, "p90"); (0.99, "p99") ]

(* ---------------- aligned text ---------------- *)

let text reg =
  let buf = Buffer.create 1024 in
  let counters = Metrics.counters reg and gauges = Metrics.gauges reg in
  if counters <> [] || gauges <> [] then begin
    let t = Table.create ~title:"counters" ~columns:[ "name"; "value" ] in
    List.iter (fun (name, v) -> Table.add_row t [ name; Table.cell_int v ]) counters;
    List.iter (fun (name, v) -> Table.add_row t [ name ^ " (gauge)"; Table.cell_int v ]) gauges;
    Buffer.add_string buf (Table.render t)
  end;
  let hists = Metrics.histograms reg in
  if hists <> [] then begin
    if Buffer.length buf > 0 then Buffer.add_char buf '\n';
    let t =
      Table.create ~title:"histograms"
        ~columns:[ "name"; "count"; "mean"; "p50"; "p90"; "p99"; "max" ]
    in
    List.iter
      (fun (name, h) ->
        Table.add_row t
          ([ name; Table.cell_int (Histogram.count h); Table.cell_float ~decimals:1 (Histogram.mean h) ]
          @ List.map (fun (p, _) -> Table.cell_float ~decimals:0 (Histogram.percentile h p)) pcts
          @ [ Table.cell_int (Histogram.max_value h) ]))
      hists;
    Buffer.add_string buf (Table.render t)
  end;
  Buffer.contents buf

(* ---------------- JSON ---------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float v =
  if Float.is_nan v || Float.is_integer v then Printf.sprintf "%.0f" (if Float.is_nan v then 0.0 else v)
  else Printf.sprintf "%.6g" v

let json reg =
  let buf = Buffer.create 4096 in
  let obj fields = "{" ^ String.concat ", " fields ^ "}" in
  let scalar_section bindings =
    obj (List.map (fun (name, v) -> Printf.sprintf "\"%s\": %d" (json_escape name) v) bindings)
  in
  let hist_entry (name, h) =
    let nonzero =
      Array.to_list (Histogram.buckets h)
      |> List.mapi (fun b c -> (b, c))
      |> List.filter (fun (_, c) -> c > 0)
      |> List.map (fun (b, c) ->
             let lo, hi = Histogram.bucket_bounds b in
             Printf.sprintf "[%d, %d, %d]" (max 0 lo) (max 0 hi) c)
    in
    Printf.sprintf "\"%s\": %s" (json_escape name)
      (obj
         ([
            Printf.sprintf "\"count\": %d" (Histogram.count h);
            Printf.sprintf "\"sum\": %d" (Histogram.sum h);
            Printf.sprintf "\"min\": %d" (Histogram.min_value h);
            Printf.sprintf "\"max\": %d" (Histogram.max_value h);
            Printf.sprintf "\"mean\": %s" (json_float (Histogram.mean h));
          ]
         @ List.map
             (fun (p, label) ->
               Printf.sprintf "\"%s\": %s" label (json_float (Histogram.percentile h p)))
             pcts
         @ [ Printf.sprintf "\"buckets\": [%s]" (String.concat ", " nonzero) ]))
  in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"counters\": %s,\n" (scalar_section (Metrics.counters reg)));
  Buffer.add_string buf (Printf.sprintf "  \"gauges\": %s,\n" (scalar_section (Metrics.gauges reg)));
  Buffer.add_string buf
    (Printf.sprintf "  \"histograms\": {%s}\n"
       (String.concat ",\n    " (List.map hist_entry (Metrics.histograms reg))));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* ---------------- Prometheus text format ---------------- *)

let prom_sanitize name =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
    name

let prom_name name = "segdb_" ^ prom_sanitize name

(* Exposition-format escaping for label values: backslash, double
   quote, and newline. Anything else (an address, a socket path) passes
   through verbatim inside the quotes. *)
let prom_label_value v =
  let buf = Buffer.create (String.length v + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let prom_labels kvs =
  match kvs with
  | [] -> ""
  | kvs ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> prom_sanitize k ^ "=\"" ^ prom_label_value v ^ "\"") kvs)
      ^ "}"

let prometheus ?(labels = []) reg =
  let buf = Buffer.create 4096 in
  let base = prom_labels labels in
  let sample name typ lines =
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name typ);
    List.iter (fun l -> Buffer.add_string buf (l ^ "\n")) lines
  in
  List.iter
    (fun (name, v) ->
      let n = prom_name name in
      sample n "counter" [ Printf.sprintf "%s%s %d" n base v ])
    (Metrics.counters reg);
  List.iter
    (fun (name, v) ->
      let n = prom_name name in
      sample n "gauge" [ Printf.sprintf "%s%s %d" n base v ])
    (Metrics.gauges reg);
  List.iter
    (fun (name, h) ->
      let n = prom_name name in
      let with_le le = prom_labels (labels @ [ ("le", le) ]) in
      let buckets = Histogram.buckets h in
      let top =
        (* highest non-empty bucket: emit up to there, then +Inf *)
        let t = ref 0 in
        Array.iteri (fun b c -> if c > 0 then t := b) buckets;
        !t
      in
      let cum = ref 0 in
      let lines = ref [] in
      for b = 0 to top do
        cum := !cum + buckets.(b);
        let _, hi = Histogram.bucket_bounds b in
        lines :=
          Printf.sprintf "%s_bucket%s %d" n (with_le (string_of_int (max 0 hi))) !cum
          :: !lines
      done;
      lines := Printf.sprintf "%s_bucket%s %d" n (with_le "+Inf") (Histogram.count h) :: !lines;
      lines := Printf.sprintf "%s_sum%s %d" n base (Histogram.sum h) :: !lines;
      lines := Printf.sprintf "%s_count%s %d" n base (Histogram.count h) :: !lines;
      sample n "histogram" (List.rev !lines))
    (Metrics.histograms reg);
  Buffer.contents buf

(* ---------------- parsing the exposition back ---------------- *)

type scrape = {
  values : (string * float) list;
  buckets : (string * float * float) list;
}

let parse_le line from =
  let tag = "le=\"" in
  let tl = String.length tag in
  let n = String.length line in
  let rec find i =
    if i + tl > n then None
    else if String.sub line i tl = tag then
      match String.index_from_opt line (i + tl) '"' with
      | Some j -> (
          match String.sub line (i + tl) (j - i - tl) with
          | "+Inf" -> Some Float.infinity
          | s -> float_of_string_opt s)
      | None -> None
    else find (i + 1)
  in
  find from

let parse_prometheus text =
  let values = ref [] and buckets = ref [] in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then
        let name_end =
          match (String.index_opt line '{', String.index_opt line ' ') with
          | Some i, Some j -> Some (min i j)
          | Some i, None -> Some i
          | None, j -> j
        in
        (* without labels the name ends at the value's own space *)
        match (name_end, String.rindex_opt line ' ') with
        | Some i, Some sp when sp >= i -> (
            let name = String.sub line 0 i in
            match float_of_string_opt (String.sub line (sp + 1) (String.length line - sp - 1)) with
            | None -> ()
            | Some v ->
                if Filename.check_suffix name "_bucket" then (
                  let base = String.sub name 0 (String.length name - 7) in
                  match parse_le line i with
                  | Some le -> buckets := (base, le, v) :: !buckets
                  | None -> ())
                else values := (name, v) :: !values)
        | _ -> ())
    (String.split_on_char '\n' text);
  { values = List.rev !values; buckets = List.rev !buckets }

let value sc name = List.assoc_opt name sc.values

let delta prev cur name =
  match (value prev name, value cur name) with
  | Some a, Some b when b >= a -> Some (b -. a)
  | Some _, Some _ -> Some 0.0
  | _, _ -> None

let bucket_series sc name =
  List.filter_map (fun (b, le, c) -> if b = name then Some (le, c) else None) sc.buckets

(* cumulative count at [le]: the value of the largest emitted bound at
   or below it (cumulative series are monotone in le) *)
let cum_at series le =
  List.fold_left (fun acc (l, c) -> if l <= le then Float.max acc c else acc) 0.0 series

let window_percentile prev cur name p =
  let cs = bucket_series cur name in
  if cs = [] then None
  else begin
    let ps = bucket_series prev name in
    let adj = List.map (fun (le, c) -> (le, Float.max 0.0 (c -. cum_at ps le))) cs in
    let total = List.fold_left (fun acc (_, c) -> Float.max acc c) 0.0 adj in
    if total <= 0.0 then None
    else begin
      let rank = p *. total in
      let rec walk lo lo_cum = function
        | [] -> Some lo
        | (le, c) :: rest ->
            if c >= rank then
              if Float.is_finite le then
                let frac = if c > lo_cum then (rank -. lo_cum) /. (c -. lo_cum) else 1.0 in
                Some (lo +. (frac *. (le -. lo)))
              else Some lo
            else walk le c rest
      in
      walk 0.0 0.0 adj
    end
  end

(* ---------------- trace rendering ---------------- *)

(* The stitched per-request view: events from several processes and
   domains (a client's ring merged with what the server returned over
   the wire), ordered by wall-clock start. Seqs from different
   processes are incomparable, so ties on t0 fall back to (dom, seq)
   only to make the output deterministic. *)
let timeline events =
  let events =
    List.sort
      (fun (a : Trace.event) (b : Trace.event) ->
        compare (a.t0_ns, a.dom, a.seq) (b.t0_ns, b.dom, b.seq))
      events
  in
  let t_base =
    List.fold_left (fun acc (ev : Trace.event) -> min acc ev.t0_ns) max_int events
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "t+ms       dur(us)    dom  blocks  phase\n";
  List.iter
    (fun (ev : Trace.event) ->
      Buffer.add_string buf
        (Printf.sprintf "%-10.3f %-10.1f %-4d %7d  %s%s\n"
           (float_of_int (ev.t0_ns - t_base) /. 1e6)
           (float_of_int ev.dur_ns /. 1e3)
           ev.dom ev.blocks
           (String.make (2 * ev.depth) ' ')
           ev.phase))
    events;
  Buffer.contents buf

(* Chrome trace-event JSON (the "JSON array format" with complete "X"
   events), loadable in Perfetto / chrome://tracing. Timestamps are
   microseconds; request ids map to pids and domains to tids, so a
   request groups as one "process" with one track per domain. *)
let trace_json events =
  let events =
    List.sort
      (fun (a : Trace.event) (b : Trace.event) ->
        compare (a.t0_ns, a.dom, a.seq) (b.t0_ns, b.dom, b.seq))
      events
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
  List.iteri
    (fun i (ev : Trace.event) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n  {\"name\": \"%s\", \"cat\": \"segdb\", \"ph\": \"X\", \"ts\": %.3f, \
            \"dur\": %.3f, \"pid\": %d, \"tid\": %d, \"args\": {\"seq\": %d, \
            \"depth\": %d, \"blocks\": %d}}"
           (json_escape ev.phase)
           (float_of_int ev.t0_ns /. 1e3)
           (float_of_int ev.dur_ns /. 1e3)
           ev.request_id ev.dom ev.seq ev.depth ev.blocks))
    events;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

(* Per-phase roll-up of the span histograms ([span.<phase>.ns] paired
   with [span.<phase>.blocks]) — the table the bench and the CLI's
   --trace flag print. *)
let phase_summary reg =
  let hists = Metrics.histograms reg in
  let phase_of name =
    if String.length name > 8 && String.sub name 0 5 = "span." && Filename.check_suffix name ".ns"
    then Some (String.sub name 5 (String.length name - 8))
    else None
  in
  let t =
    Table.create ~title:"per-phase spans"
      ~columns:
        [ "phase"; "count"; "p50 us"; "p90 us"; "p99 us"; "max us"; "p50 blk"; "max blk" ]
  in
  let any = ref false in
  List.iter
    (fun (name, h) ->
      match phase_of name with
      | None -> ()
      | Some _ when Histogram.is_empty h -> ()
      | Some phase ->
          any := true;
          let blocks =
            match List.assoc_opt (Trace.span_blocks_histogram phase) hists with
            | Some b -> b
            | None -> Histogram.create ()
          in
          let us v = v /. 1e3 in
          Table.add_row t
            [
              phase;
              Table.cell_int (Histogram.count h);
              Table.cell_float ~decimals:1 (us (Histogram.percentile h 0.5));
              Table.cell_float ~decimals:1 (us (Histogram.percentile h 0.9));
              Table.cell_float ~decimals:1 (us (Histogram.percentile h 0.99));
              Table.cell_float ~decimals:1 (us (float_of_int (Histogram.max_value h)));
              Table.cell_float ~decimals:1 (Histogram.percentile blocks 0.5);
              Table.cell_int (Histogram.max_value blocks);
            ])
    hists;
  if !any then Table.render t else "(no spans recorded)\n"
