(* Per-layer metrics computed from other metrics rather than measured.
   Each rule names its inputs; [apply] refuses to guess a missing one. *)

type rule = { name : string; inputs : string list; f : float array -> float }

let rules =
  [
    (* what Exec adds around the index descent: queueing, the domain
       handoff to the worker and back, the cached-reader check *)
    { name = "exec.handoff_us"; inputs = [ "exec.request_us"; "core.query_us" ];
      f = (fun a -> a.(0) -. a.(1)) };
    (* the served round trip not spent executing or encoding: client,
       socket, accept loop, scheduler *)
    { name = "net.outside_exec_us"; inputs = [ "net.rtt_us"; "exec.request_us"; "wire.codec_us" ];
      f = (fun a -> a.(0) -. a.(1) -. a.(2)) };
    (* net.rtt_us is the traced window's query p50 *)
    { name = "net.trace_overhead_us"; inputs = [ "net.rtt_us"; "net.untraced_query_p50_us" ];
      f = (fun a -> a.(0) -. a.(1)) };
    { name = "obs.cpu_us_per_op"; inputs = [ "server.cpu_us_per_op"; "server.no_obs_cpu_us_per_op" ];
      f = (fun a -> a.(0) -. a.(1)) };
    { name = "core.cache_hit_ratio"; inputs = [ "core.cache_hits"; "core.cache_misses" ];
      f = (fun a -> if a.(0) +. a.(1) = 0. then 0. else a.(0) /. (a.(0) +. a.(1))) };
    (* the exit summary counts set-up too; a setup-only spawn prices it *)
    { name = "server.major_words_per_op";
      inputs = [ "server.major_words"; "server.setup_major_words"; "server.ops" ];
      f = (fun a -> (a.(0) -. a.(1)) /. a.(2)) };
  ]

let apply metrics =
  metrics
  @ List.map
      (fun r ->
        let arg i =
          match List.assoc_opt i metrics with
          | Some v -> v
          | None -> invalid_arg (Printf.sprintf "Derived: %s needs %s" r.name i)
        in
        (r.name, r.f (Array.of_list (List.map arg r.inputs))))
      rules
