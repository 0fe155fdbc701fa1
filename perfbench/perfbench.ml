(* The benchmark: one process, one domain, no [Sim.Pool].

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   [--trace 0] reports the end-to-end metrics from obs-off timed rounds;
   [--trace 1] reports the per-layer metrics from one traced run of the
   same cells plus the layer benches of [Layers].  Both first run every
   cell once, untimed, under the full chaos audit; every later run of a
   cell must reproduce that run's simulated result exactly.  The last
   line of standard output is the JSON result. *)

let now = Unix.gettimeofday

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int
let top_heap_mb () =
  fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* ------------------------------------------------------------------ *)
(* Validation                                                           *)
(* ------------------------------------------------------------------ *)

type cell_state = {
  cell : Cells.cell;
  reference : Core.Simulator.result option;  (** the validation run's *)
  fingerprint : string;
  result_fingerprint : string;  (** the same, without the analysis *)
  mutable errors : string list;
  mutable runs : int;  (** validation run included *)
  mutable failed_runs : int;
}

(* Record a failed check; each distinct failure is printed once. *)
let fail st msg =
  if not (List.mem msg st.errors) then begin
    st.errors <- st.errors @ [ msg ];
    Printf.printf "FAIL %s: %s\n%!" st.cell.Cells.name msg
  end

(* The validation round: every cell once under the audit.  Prints the
   simulated results and their digest. *)
let validation_round workload cells =
  let states =
    List.map
      (fun c ->
        Gc.compact ();
        let r, a, errors = Cells.validate c in
        let st =
          {
            cell = c;
            reference = r;
            fingerprint =
              (match r with Some r -> Cells.fingerprint r a | None -> "");
            result_fingerprint =
              (match r with Some r -> Cells.fingerprint r None | None -> "");
            errors = [];
            runs = 1;
            failed_runs = 0;
          }
        in
        List.iter (fail st) errors;
        if errors <> [] then st.failed_runs <- 1;
        st)
      cells
  in
  Printf.printf "simulated results (%s):\n" workload;
  List.iter
    (fun st ->
      match st.reference with
      | Some r -> print_endline ("  " ^ Cells.digest_line st.cell.Cells.name r)
      | None -> ())
    states;
  Printf.printf "digest %s %s\n%!" workload
    (Digest.to_hex
       (Digest.string
          (String.concat "\n" (List.map (fun st -> st.fingerprint) states))));
  states

(* Check one later run of a cell against its validation run. *)
let check st (r, a) =
  st.runs <- st.runs + 1;
  let expect =
    if Option.is_none a then st.result_fingerprint else st.fingerprint
  in
  if Cells.fingerprint r a <> expect then begin
    st.failed_runs <- st.failed_runs + 1;
    fail st "run does not reproduce the validation run"
  end

(* A cell's timed work: seconds taken and the outcome.  [~obs]
   overrides an observed cell's recorders (its obs-off twin). *)
let timed_work ?obs c =
  Gc.compact ();
  let t0 = now () in
  let out = Cells.work ?obs c in
  (now () -. t0, out)

let checked_work ?obs st =
  let dt, out = timed_work ?obs st.cell in
  check st out;
  dt

let cell_commits st =
  match st.reference with Some r -> r.Core.Simulator.commits | None -> 0

(* ------------------------------------------------------------------ *)
(* Set-up time                                                          *)
(* ------------------------------------------------------------------ *)

(* Assemble every cell (engine, database, servers, clients, network)
   and stop its clock almost at once: the set-up cost of one batch, as
   the mean of [setup_repeats] back-to-back assemblies (one alone takes
   well under a millisecond, too short to time steadily). *)
let setup_repeats = 5

let setup_pass cells =
  Gc.compact ();
  let t0 = now () in
  for _ = 1 to setup_repeats do
    List.iter
      (fun c ->
        ignore
          (Shard.Shard_sim.run
             { (Cells.run_spec c) with Core.Simulator.max_sim_time = 1e-9 }))
      cells
  done;
  (now () -. t0) /. fi setup_repeats

(* ------------------------------------------------------------------ *)
(* End-to-end: obs-off timed rounds                                     *)
(* ------------------------------------------------------------------ *)

let min_rounds = 3
let setups_per_round = 4

(* Host speed drifts, by up to a factor of two over minutes, so host
   times are reported in reference seconds: divided by the time of a
   [Calib] probe run beside them and multiplied by the probe's typical
   time on the 2-core VM the bounds were sized on. *)
let reference_probe_s = 0.030

(* Round-robin timed rounds with a [Gc.compact] between cells until
   [seconds] are spent (at least [min_rounds]).  Each cell's run is
   followed by a probe, and every round by [setups_per_round] set-up
   passes, which are scaled by the round's median probe.  Returns every
   cell's run time over its probe's per round, the scaled set-up passes,
   the minor words of one run of each cell and the heap high-water mark
   after the first round.  (The OCaml 5.1 heap never shrinks and creeps
   up over repeated runs, so the high-water mark is read at a point
   every run reaches by the same steps.) *)
let timed_rounds ~seconds cells states =
  let n = List.length states in
  let times = Array.make n [] and words = Array.make n 0.0 in
  let t_start = now () in
  let rounds = ref 0 in
  let round_times = ref [] and setups = ref [] and peak = ref 0.0 in
  let continue () =
    let spent = now () -. t_start in
    !rounds < min_rounds || spent +. (spent /. fi !rounds) <= seconds
  in
  while continue () do
    let t_round = now () in
    let probes =
      List.mapi
        (fun i st ->
          let w0 = Gc.minor_words () in
          let dt = checked_work st in
          let w = Gc.minor_words () -. w0 in
          if !rounds = 0 then words.(i) <- w;
          let probe = Calib.seconds () in
          times.(i) <- (dt, probe) :: times.(i);
          probe)
        states
    in
    round_times := (now () -. t_round) :: !round_times;
    if !rounds = 0 then peak := top_heap_mb ();
    for _ = 1 to setups_per_round do
      setups := (setup_pass cells /. median probes) :: !setups
    done;
    incr rounds
  done;
  Printf.printf "timed rounds: %d in %.2fs (%s)\n%!" !rounds
    (now () -. t_start)
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !round_times));
  (times, !setups, words, !peak)

let end_to_end ~seconds cells states =
  let times, setups, words, peak = timed_rounds ~seconds cells states in
  let commits = List.fold_left (fun a st -> a + cell_commits st) 0 states in
  let events =
    List.fold_left
      (fun a st ->
        match st.reference with
        | Some r -> a + r.Core.Simulator.events
        | None -> a)
      0 states
  in
  let ok = List.length (List.filter (fun st -> st.errors = []) states) in
  let c = fi commits in
  (* the batch's time: the sum over cells of each cell's median round *)
  let batch f =
    Array.fold_left (fun acc ts -> acc +. median (List.map f ts)) 0.0 times
  in
  let fastest =
    Array.fold_left
      (fun acc ts -> acc +. List.fold_left (fun m (t, _) -> Float.min m t) infinity ts)
      0.0 times
  in
  Printf.printf
    "unscaled commits/s: %.1f by median rounds, %.1f by fastest rounds; \
     median probe %.4fs\n"
    (ratio c (batch fst)) (ratio c fastest)
    (median (List.concat_map (List.map snd) (Array.to_list times)));
  [
    ( "commits_per_s",
      "1/s",
      ratio c (reference_probe_s *. batch (fun (t, p) -> t /. p)) );
    ("events_per_commit", "events", ratio (fi events) c);
    ( "alloc_words_per_commit",
      "words",
      ratio (Array.fold_left ( +. ) 0.0 words) c );
    ("peak_heap_mb", "MB", peak);
    ("setup_s", "s", reference_probe_s *. median setups);
    ("ok_ratio", "ratio", ratio (fi ok) (fi (List.length states)));
  ]

(* ------------------------------------------------------------------ *)
(* Per layer: one traced run plus the layer benches                     *)
(* ------------------------------------------------------------------ *)

(* [Obs.Config.full] with causal DAGs as well: every recorder on. *)
let traced_config = { Obs.Config.full with Obs.Config.causal = true }

type acc = (string, float) Hashtbl.t

let add (h : acc) k v =
  Hashtbl.replace h k (v +. Option.value ~default:0.0 (Hashtbl.find_opt h k))

let get (h : acc) k = Option.value ~default:0.0 (Hashtbl.find_opt h k)
let put (h : acc) k v = Hashtbl.replace h k v

(* Sum one traced cell's counts into [h]. *)
let account h st (r : Core.Simulator.result) (o : Obs.Run.t)
    (a : Cells.analysis) =
  let open Core.Simulator in
  let c = st.cell in
  add h "commits" (fi r.commits);
  add h "attempts" (fi (r.commits + r.aborts));
  add h "aborts_deadlock" (fi r.aborts_deadlock);
  add h "aborts_stale" (fi r.aborts_stale);
  add h "aborts_cert" (fi r.aborts_cert);
  add h "callbacks" (fi r.callbacks_sent);
  add h "pushes" (fi r.pushes_sent);
  add h "server_cpu_util" r.server_cpu_util;
  add h "disk_util" r.disk_util;
  add h "log_disk_util" r.log_disk_util;
  add h "net_util" r.net_util;
  add h "hits" (r.hit_ratio *. fi r.commits);
  add h "prepares" (fi r.prepares);
  add h "xshard_commits" (fi r.xshard_commits);
  add h "xshard_aborts" (fi r.xshard_aborts);
  add h "outcome_queries" (fi r.outcome_queries);
  let sc = Array.map fi r.shard_commits in
  let mean = Array.fold_left ( +. ) 0.0 sc /. fi (max 1 (Array.length sc)) in
  add h "shard_skew" (ratio (Array.fold_left Float.max 0.0 sc) mean);
  let cfg = c.Cells.spec.cfg in
  put h "clients"
    (Float.max (get h "clients") (fi cfg.Core.Sys_params.n_clients));
  put h "cache_size" (fi cfg.Core.Sys_params.cache_size);
  put h "pages" (fi (Db.Db_params.total_pages c.Cells.spec.db_params));
  add h "write_share" c.Cells.spec.xact_params.Db.Xact_params.prob_write;
  add h "locality" c.Cells.spec.xact_params.Db.Xact_params.inter_xact_loc;
  List.iter
    (fun (rep : Obs.Run.rep) ->
      (match rep.profile with
      | Some p ->
          add h "holds" (fi p.Sim.Engine.pr_holds);
          add h "wakes" (fi p.Sim.Engine.pr_wakes);
          add h "spawns" (fi p.Sim.Engine.pr_spawned);
          put h "heap_hwm"
            (Float.max (get h "heap_hwm") (fi p.Sim.Engine.pr_heap_hwm))
      | None -> ());
      add h "trace_entries" (fi (Array.length rep.trace));
      add h "span_entries" (fi (Array.length rep.spans));
      add h "causal_entries" (fi (Array.length rep.causal));
      add h "dropped"
        (fi (rep.trace_dropped + rep.spans_dropped + rep.causal_dropped));
      let s = Obs.Analysis.summarize rep.trace in
      add h "lock_waits" (fi s.Obs.Analysis.n_lock_waits);
      add h "lock_wait_time"
        (fi s.Obs.Analysis.n_lock_waits *. s.Obs.Analysis.lock_wait_mean))
    o.Obs.Run.reps;
  List.iter
    (fun (m : Obs.Causal.amp) ->
      add h "msgs" (fi m.am_msgs);
      add h "pkts" (fi m.am_pkts);
      add h "bytes" (fi m.am_bytes);
      add h "retx" (fi m.am_retx))
    (Obs.Causal.amplification (Obs.Run.merged_causal o));
  let cp = a.Cells.critical in
  add h "end_to_end" cp.Obs.Critical_path.cp_end_to_end;
  let rows tag (rs : Obs.Critical_path.row list) =
    List.iter
      (fun (row : Obs.Critical_path.row) ->
        add h (tag ^ Obs.Span.kind_name row.r_kind) row.r_total)
      rs
  in
  rows "client:" cp.Obs.Critical_path.cp_client;
  List.iter (fun (_, rs) -> rows "server:" rs) cp.Obs.Critical_path.cp_server;
  rows "router:" cp.Obs.Critical_path.cp_router

(* Per-layer mode: obs-off twins of the cells, the validation round,
   the traced run, then the twins again.  The traced cells' time over
   the twins' best is the tracing overhead; the heap high-water after
   the traced run over the one after the first twins is its heap cost
   (OCaml 5.1 never shrinks the heap, so only this order isolates it). *)
let per_layer workload cells =
  let h : acc = Hashtbl.create 64 in
  let n = List.length cells in
  let off = Obs.Config.off in
  let first = List.map (timed_work ~obs:off) cells in
  let heap_off = top_heap_mb () in
  let states = validation_round workload cells in
  List.iter2 (fun st (_, out) -> check st out) states first;
  let off1 = List.map fst first in
  let traced_s = ref 0.0 and analyze_s = ref 0.0 in
  List.iter
    (fun st ->
      Gc.compact ();
      let sp = { st.cell.Cells.spec with Core.Simulator.obs = traced_config } in
      let t0 = now () in
      let r = Shard.Shard_sim.run sp in
      let t1 = now () in
      let errors =
        match r.Core.Simulator.obs with
        | None -> [ "traced run returned no observability payload" ]
        | Some o ->
            let a = Cells.analyze o in
            traced_s := !traced_s +. (t1 -. t0);
            analyze_s := !analyze_s +. (now () -. t1);
            account h st r o a;
            (if r.Core.Simulator.commits <> cell_commits st then
               [ "traced run changed the commit count" ]
             else [])
            @ Cells.obs_errors o a
      in
      st.runs <- st.runs + 1;
      if errors <> [] then st.failed_runs <- st.failed_runs + 1;
      List.iter (fail st) errors)
    states;
  let heap_traced = top_heap_mb () in
  let off2 = List.map (checked_work ~obs:off) states in
  let off_s =
    List.fold_left2 (fun acc a b -> acc +. Float.min a b) 0.0 off1 off2
  in
  let commits = get h "commits" in
  let per k = ratio (get h k) commits in
  let e2e = get h "end_to_end" in
  let share k = ratio (get h k) e2e in
  let mean k = ratio (get h k) (fi n) in
  let sizing =
    {
      Layers.heap_hwm = int_of_float (get h "heap_hwm");
      clients = int_of_float (get h "clients");
      cache_size = int_of_float (get h "cache_size");
      pages = int_of_float (get h "pages");
      write_share = mean "write_share";
      locality = mean "locality";
    }
  in
  let layer = Layers.all sizing in
  let ns k = List.assoc k layer in
  let r = "ratio" and cnt = "count" and nsu = "ns" in
  ( states,
  [
    ("engine.holds_per_commit", cnt, per "holds");
    ("engine.wakes_per_commit", cnt, per "wakes");
    ("engine.spawns_per_commit", cnt, per "spawns");
    ("engine.heap_hwm", cnt, get h "heap_hwm");
    ("engine.ns_per_event", nsu, ns "engine.ns_per_event");
    ("heap.ns_per_op", nsu, ns "heap.ns_per_op");
    ("facility.server_cpu_util", r, mean "server_cpu_util");
    ("facility.disk_util", r, mean "disk_util");
    ("facility.log_disk_util", r, mean "log_disk_util");
    ("facility.net_util", r, mean "net_util");
    ("facility.ns_per_use", nsu, ns "facility.ns_per_use");
    ("network.msgs_per_commit", cnt, per "msgs");
    ("network.pkts_per_commit", cnt, per "pkts");
    ("network.bytes_per_commit", "bytes", per "bytes");
    ("network.retx_per_commit", cnt, per "retx");
    ("network.ns_per_post", nsu, ns "network.ns_per_post");
    ("lock_table.waits_per_commit", cnt, per "lock_waits");
    ("lock_table.wait_mean_s", "s", ratio (get h "lock_wait_time") (get h "lock_waits"));
    ("lock_table.deadlocks_per_commit", cnt, per "aborts_deadlock");
    ("lock_table.ns_per_op", nsu, ns "lock_table.ns_per_op");
    ("lru.hit_ratio", r, per "hits");
    ("lru.ns_per_op", nsu, ns "lru.ns_per_op");
    ("log.force_share", r, share "server:log_force");
    ("log.ns_per_force", nsu, ns "log.ns_per_force");
    ("protocol.commit_ratio", r, ratio commits (get h "attempts"));
    ("protocol.aborts_deadlock_per_commit", cnt, per "aborts_deadlock");
    ("protocol.aborts_stale_per_commit", cnt, per "aborts_stale");
    ("protocol.aborts_cert_per_commit", cnt, per "aborts_cert");
    ("protocol.callbacks_per_commit", cnt, per "callbacks");
    ("protocol.pushes_per_commit", cnt, per "pushes");
  ]
  @ List.map
      (fun k ->
        let name = Obs.Span.kind_name k in
        ("phase." ^ name ^ "_share", r, share ("client:" ^ name)))
      Obs.Critical_path.client_leaf_kinds
  @ [
      ("router.xshard_share", r, per "xshard_commits");
      ("router.prepares_per_commit", cnt, per "prepares");
      ( "router.xshard_abort_ratio",
        r,
        ratio (get h "xshard_aborts")
          (get h "xshard_commits" +. get h "xshard_aborts") );
      ("router.outcome_queries_per_commit", cnt, per "outcome_queries");
      ("router.shard_skew", r, mean "shard_skew");
      ("router.prepare_share", r, share "router:2pc_prepare");
      ("router.decide_share", r, share "router:2pc_decide");
      ("obs.trace_entries_per_commit", cnt, per "trace_entries");
      ("obs.span_entries_per_commit", cnt, per "span_entries");
      ("obs.causal_entries_per_commit", cnt, per "causal_entries");
      ("obs.dropped", cnt, get h "dropped");
      ("obs.overhead_x", "x", ratio !traced_s off_s);
      ("obs.heap_x", "x", ratio heap_traced heap_off);
      ("obs.analyze_s", "s", !analyze_s);
      ("obs.emit_ns", nsu, ns "obs.emit_ns");
    ] )

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)
(* ------------------------------------------------------------------ *)

let json_result ~correct ~attempted ~failed metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
              (num v) unit)
          metrics))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME read-local | write-2pc | observed");
      ("--seed", Arg.Set_int seed, "N simulation seed of every cell");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let cells =
    match Cells.workload ~seed:!seed !workload with
    | Some cells -> cells
    | None ->
        Printf.eprintf "perfbench: unknown workload %S (one of %s)\n" !workload
          (String.concat ", " Cells.workload_names);
        exit 2
  in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d ocaml=%s host=%s\n%!"
    !workload !seed !seconds !trace Sys.ocaml_version (Unix.gethostname ());
  let states, metrics =
    if !trace = 0 then
      let states = validation_round !workload cells in
      (states, end_to_end ~seconds:!seconds cells states)
    else per_layer !workload cells
  in
  List.iter
    (fun (name, unit, v) -> Printf.printf "  %-40s %14.6g %s\n" name v unit)
    metrics;
  let attempted = List.fold_left (fun a st -> a + st.runs) 0 states in
  let failed = List.fold_left (fun a st -> a + st.failed_runs) 0 states in
  let bad = List.exists (fun st -> st.errors <> []) states in
  let nonfinite =
    List.exists (fun (_, _, v) -> not (Float.is_finite v)) metrics
  in
  if nonfinite then print_endline "FAIL a metric is not finite";
  print_endline
    (json_result
       ~correct:((not bad) && not nonfinite)
       ~attempted ~failed metrics)
