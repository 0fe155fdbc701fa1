(* Runner golden: one digest line per cell of 8 algorithms x {1, 4}
   shards x {no faults, message/client faults, server faults}, each run
   with every observability layer on.  A line digests the result scalars
   (floats printed with %h, so bit-exact) and every artifact the layers
   produce: the trace text, span text, causal DAG text, series CSV, and
   OpenMetrics export.  Any change to what a run computes or records
   shows up as a changed line, naming the cell and the component.

   Regenerate (only for an intended behaviour change) with
     CCSIM_GOLDEN_OUT=$PWD/test/runner.golden dune exec test/test_golden.exe *)

let golden_file = "runner.golden"

let algorithms =
  [
    Core.Proto.Two_phase Core.Proto.Inter;
    Core.Proto.Two_phase Core.Proto.Intra;
    Core.Proto.Certification Core.Proto.Inter;
    Core.Proto.Certification Core.Proto.Intra;
    Core.Proto.Callback;
    Core.Proto.No_wait { notify = None };
    Core.Proto.No_wait { notify = Some Core.Proto.Push };
    Core.Proto.No_wait { notify = Some Core.Proto.Invalidate };
  ]

let plans n_shards =
  [
    ("none", Fault.Plan.none);
    ("default", Fault.Plan.default ~seed:5);
    (if n_shards = 1 then ("server", Fault.Plan.server_default ~seed:5)
     else ("shard", Fault.Plan.shard_default ~seed:5));
  ]

let all_obs =
  Obs.Config.make ~trace:true ~series:true ~sample_interval:1.0 ~profile:true
    ~spans:true ~metrics:true ~causal:true ()

let spec ~n_shards ~fault algo =
  let cfg = Core.Sys_params.table5 ~n_clients:8 () in
  let xp = Db.Xact_params.short_batch ~prob_write:0.2 ~inter_xact_loc:0.5 () in
  {
    (Core.Simulator.default_spec ~seed:3 ~warmup_commits:30
       ~measured_commits:150 ~fault ~obs:all_obs ~cfg ~xact_params:xp algo)
    with
    Core.Simulator.n_shards;
  }

let scalars (r : Core.Simulator.result) =
  let b = Buffer.create 1024 in
  let i name v = Printf.bprintf b "%s=%d\n" name v in
  let f name v = Printf.bprintf b "%s=%h\n" name v in
  let ia name a =
    Printf.bprintf b "%s=[%s]\n" name
      (String.concat ";" (Array.to_list (Array.map string_of_int a)))
  in
  let fa name a =
    Printf.bprintf b "%s=[%s]\n" name
      (String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%h") a)))
  in
  Printf.bprintf b "algo=%s\n" (Core.Proto.algorithm_name r.algo);
  i "n_clients" r.n_clients;
  f "mean_response" r.mean_response;
  f "response_stddev" r.response_stddev;
  f "response_p50" r.response_p50;
  f "response_p95" r.response_p95;
  f "throughput" r.throughput;
  i "commits" r.commits;
  i "aborts" r.aborts;
  i "aborts_deadlock" r.aborts_deadlock;
  i "aborts_stale" r.aborts_stale;
  i "aborts_cert" r.aborts_cert;
  f "hit_ratio" r.hit_ratio;
  i "messages" r.messages;
  i "packets" r.packets;
  f "msgs_per_commit" r.msgs_per_commit;
  i "callbacks_sent" r.callbacks_sent;
  i "pushes_sent" r.pushes_sent;
  f "server_cpu_util" r.server_cpu_util;
  f "client_cpu_util" r.client_cpu_util;
  f "disk_util" r.disk_util;
  f "log_disk_util" r.log_disk_util;
  f "net_util" r.net_util;
  f "window" r.window;
  f "sim_time" r.sim_time;
  i "events" r.events;
  i "aborts_lease" r.aborts_lease;
  i "retries" r.retries;
  i "crashes" r.crashes;
  i "recoveries" r.recoveries;
  i "lost_xacts" r.lost_xacts;
  i "reclaimed_locks" r.reclaimed_locks;
  i "lease_lapses" r.lease_lapses;
  i "msgs_dropped" r.msgs_dropped;
  i "msgs_delayed" r.msgs_delayed;
  i "msgs_duplicated" r.msgs_duplicated;
  f "mean_recovery" r.mean_recovery;
  i "server_crashes" r.server_crashes;
  i "server_recoveries" r.server_recoveries;
  i "server_killed_xacts" r.server_killed_xacts;
  i "checkpoints" r.checkpoints;
  f "server_downtime" r.server_downtime;
  f "mean_server_recovery" r.mean_server_recovery;
  i "n_shards" r.n_shards;
  i "prepares" r.prepares;
  i "xshard_commits" r.xshard_commits;
  i "xshard_aborts" r.xshard_aborts;
  i "outcome_queries" r.outcome_queries;
  ia "shard_commits" r.shard_commits;
  fa "rep_mean_responses" r.rep_mean_responses;
  fa "rep_throughputs" r.rep_throughputs;
  Buffer.contents b

(* Per-component digests of one run, in a fixed order. *)
let components (r : Core.Simulator.result) =
  let o = Option.get r.obs in
  let series =
    String.concat ""
      (List.filter_map
         (fun rep -> Option.map Obs.Export.series_csv rep.Obs.Run.series)
         o.Obs.Run.reps)
  in
  let metrics =
    match Obs.Run.merged_metrics o with
    | Some m -> Obs.Metrics.to_openmetrics m
    | None -> ""
  in
  [
    ("result", scalars r);
    ("trace", Obs.Export.trace_text (Obs.Run.merged_trace o));
    ("spans", Obs.Export.span_text (Obs.Run.merged_spans o));
    ("dag", Obs.Export.dag_text (Obs.Run.merged_causal o));
    ("series", series);
    ("metrics", metrics);
  ]

let cells () =
  List.concat_map
    (fun n_shards ->
      List.concat_map
        (fun (plan_name, fault) ->
          List.map
            (fun algo ->
              ( Printf.sprintf "%s shards=%d plan=%s"
                  (Core.Proto.algorithm_name algo)
                  n_shards plan_name,
                spec ~n_shards ~fault algo ))
            algorithms)
        (plans n_shards))
    [ 1; 4 ]

let line (name, sp) =
  let r = Shard.Shard_sim.run sp in
  name ^ " "
  ^ String.concat " "
      (List.map
         (fun (c, text) ->
           Printf.sprintf "%s=%s" c
             (String.sub (Digest.to_hex (Digest.string text)) 0 12))
         (components r))

let read_lines file =
  let ic = open_in file in
  let rec loop acc =
    match input_line ic with
    | l -> loop (l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  loop []

let test_golden () =
  let got = List.map line (cells ()) in
  match Sys.getenv_opt "CCSIM_GOLDEN_OUT" with
  | Some out ->
      let oc = open_out out in
      List.iter (fun l -> output_string oc (l ^ "\n")) got;
      close_out oc
  | None ->
      let want = read_lines golden_file in
      Alcotest.(check int) "cell count" (List.length want) (List.length got);
      List.iter2 (fun w g -> Alcotest.(check string) "cell digest" w g) want got

let () =
  Alcotest.run "golden"
    [ ("runner", [ Alcotest.test_case "every cell unchanged" `Slow test_golden ]) ]
