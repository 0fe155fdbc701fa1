(* The benchmark's workloads: fixed batches of simulation cells, all on
   the Table 5 system over a 40-class x 50-page database, run through the
   public entry point [Shard.Shard_sim.run] (which hands 1-shard specs to
   [Core.Simulator]).  A cell is one closed-loop simulation to a fixed
   commit target; the batch is the unit of host work the benchmark times. *)

type cell = {
  name : string;
  spec : Core.Simulator.spec;  (** obs off *)
  observed : bool;
      (** run under [Obs.Config.causal] followed by the causal analysis *)
}

let db = Db.Db_params.uniform ~n_classes:40 ~pages_per_class:50 ()

(* No warmup reset: every counter, trace and span covers the whole run,
   so "per commit" always divides by the same commits the host paid for. *)
let spec ~seed ~clients ~shards ~pw ~loc ~skew ~commits algo =
  {
    Core.Simulator.cfg = Core.Sys_params.table5 ~n_clients:clients ();
    db_params = db;
    xact_params =
      {
        (Db.Xact_params.short_batch ~prob_write:pw ~inter_xact_loc:loc ())
        with
        Db.Xact_params.class_skew = skew;
      };
    mix = None;
    algo;
    n_shards = shards;
    seed;
    warmup_commits = 0;
    measured_commits = commits;
    max_sim_time = 1e6;
    fault = Fault.Plan.none;
    obs = Obs.Config.off;
  }

let short_name = function
  | Core.Proto.Two_phase _ -> "2pl"
  | Core.Proto.Certification _ -> "cert"
  | Core.Proto.Callback -> "callback"
  | Core.Proto.No_wait { notify = None } -> "no-wait"
  | Core.Proto.No_wait { notify = Some Core.Proto.Push } -> "no-wait-push"
  | Core.Proto.No_wait { notify = Some Core.Proto.Invalidate } ->
      "no-wait-inval"

let read_local_algos =
  Core.Proto.
    [
      Two_phase Inter;
      Certification Inter;
      Callback;
      No_wait { notify = None };
      No_wait { notify = Some Push };
      No_wait { notify = Some Invalidate };
    ]

let write_2pc_algos =
  Core.Proto.[ Two_phase Inter; Callback; Certification Inter ]

let read_local_commits = 2500
let write_2pc_commits = 1000

let read_local_cell ~seed algo =
  {
    name = "read-local/" ^ short_name algo;
    spec =
      spec ~seed ~clients:30 ~shards:1 ~pw:0.05 ~loc:0.75 ~skew:0.0
        ~commits:read_local_commits algo;
    observed = false;
  }

let write_2pc_cell ~seed ~hot algo =
  {
    name =
      Printf.sprintf "write-2pc/%s-%s" (short_name algo)
        (if hot then "zipf" else "uniform");
    spec =
      spec ~seed ~clients:40 ~shards:4 ~pw:0.5 ~loc:0.25
        ~skew:(if hot then 0.9 else 0.0)
        ~commits:write_2pc_commits algo;
    observed = false;
  }

let observe c = { c with name = "observed/" ^ c.name; observed = true }

let workload_names = [ "read-local"; "write-2pc"; "observed" ]

let workload ~seed = function
  | "read-local" -> Some (List.map (read_local_cell ~seed) read_local_algos)
  | "write-2pc" ->
      Some
        (List.concat_map
           (fun hot -> List.map (write_2pc_cell ~seed ~hot) write_2pc_algos)
           [ false; true ])
  | "observed" ->
      Some
        [
          observe (read_local_cell ~seed Core.Proto.Callback);
          observe (write_2pc_cell ~seed ~hot:true (Core.Proto.Two_phase Inter));
        ]
  | _ -> None

(* The spec a cell's timed work runs. *)
let run_spec ?(obs = Obs.Config.causal) c =
  if c.observed then { c.spec with Core.Simulator.obs } else c.spec

(* What [ccsim causal] computes after its run: the DAG analysis, the
   span critical path, and both text artifacts rendered to strings. *)
type analysis = {
  causal : Obs.Causal.analysis;
  critical : Obs.Critical_path.t;
  dag_bytes : int;
  perfetto_bytes : int;
}

let analyze (o : Obs.Run.t) =
  let mc = Obs.Run.merged_causal o in
  let spans = Obs.Run.merged_spans o in
  let causal = Obs.Causal.analyze ~dropped:(Obs.Run.causal_dropped o) mc in
  let critical = Obs.Critical_path.analyze spans in
  let dag = Obs.Export.dag_text mc in
  let perfetto =
    Obs.Export.perfetto ~spans ~flows:mc (Obs.Run.merged_trace o)
  in
  {
    causal;
    critical;
    dag_bytes = String.length dag;
    perfetto_bytes = String.length perfetto;
  }

(* One cell's timed work: the run, plus the analysis for observed cells. *)
let work ?obs c =
  let r = Shard.Shard_sim.run (run_spec ?obs c) in
  let a =
    match r.Core.Simulator.obs with
    | Some o when c.observed -> Some (analyze o)
    | _ -> None
  in
  (r, a)

(* Every simulated number a cell reports, at full precision: two runs
   of the same model agree on this string or differ somewhere real. *)
let fingerprint (r : Core.Simulator.result) a =
  let open Core.Simulator in
  let f = Printf.sprintf "%h" in
  String.concat " "
    ([
       f r.throughput; f r.mean_response; f r.response_stddev;
       f r.response_p50; f r.response_p95; string_of_int r.commits;
       string_of_int r.aborts; string_of_int r.aborts_deadlock;
       string_of_int r.aborts_stale; string_of_int r.aborts_cert;
       f r.hit_ratio; string_of_int r.messages; string_of_int r.packets;
       string_of_int r.callbacks_sent; string_of_int r.pushes_sent;
       f r.server_cpu_util; f r.client_cpu_util; f r.disk_util;
       f r.log_disk_util; f r.net_util; f r.window; f r.sim_time;
       string_of_int r.events; string_of_int r.prepares;
       string_of_int r.xshard_commits; string_of_int r.xshard_aborts;
       string_of_int r.outcome_queries;
     ]
    @ Array.to_list (Array.map string_of_int r.shard_commits)
    @
    match a with
    | None -> []
    | Some a ->
        [
          string_of_int a.causal.Obs.Causal.an_check.Obs.Causal.ck_msgs;
          f a.causal.Obs.Causal.an_chain_sum;
          f a.critical.Obs.Critical_path.cp_end_to_end;
          string_of_int a.dag_bytes;
          string_of_int a.perfetto_bytes;
        ])

(* The human-readable digest line of one cell. *)
let digest_line name (r : Core.Simulator.result) =
  let open Core.Simulator in
  Printf.sprintf
    "%-28s tput=%.4f resp=%.4f p50=%.4f p95=%.4f commits=%d aborts=%d \
     (dl=%d stale=%d cert=%d) msgs=%d hit=%.4f cpu=%.3f disk=%.3f log=%.3f \
     net=%.3f"
    name r.throughput r.mean_response r.response_p50 r.response_p95 r.commits
    r.aborts r.aborts_deadlock r.aborts_stale r.aborts_cert r.messages
    r.hit_ratio r.server_cpu_util r.disk_util r.log_disk_util r.net_util

(* Audit checks an observed cell's payload must pass: well-formed causal
   DAGs and span records, a reconciling critical path, nothing dropped. *)
let obs_errors (o : Obs.Run.t) a =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  List.iter
    (fun (rep : Obs.Run.rep) ->
      if rep.trace_dropped + rep.spans_dropped + rep.causal_dropped > 0 then
        err "dropped entries: trace=%d spans=%d causal=%d" rep.trace_dropped
          rep.spans_dropped rep.causal_dropped;
      let ck = Obs.Span.validate ~dropped:rep.spans_dropped rep.spans in
      if not (Obs.Span.check_ok ck) then
        err "span record invalid: %s" (String.concat "; " ck.Obs.Span.ck_errors))
    o.Obs.Run.reps;
  let ck = a.causal.Obs.Causal.an_check in
  if not (Obs.Causal.check_ok ck) then
    err "causal record invalid: %s" (String.concat "; " ck.Obs.Causal.ck_errors);
  if ck.Obs.Causal.ck_committed = 0 then err "causal record has no commits";
  if not (Obs.Critical_path.reconciles a.critical) then
    err "critical path does not reconcile (residual %g)"
      (Obs.Critical_path.residual a.critical);
  let gap =
    Float.abs
      (a.causal.Obs.Causal.an_chain_sum
      -. a.critical.Obs.Critical_path.cp_end_to_end)
  in
  if gap > 1e-9 *. Float.max 1.0 a.critical.Obs.Critical_path.cp_end_to_end
  then err "causal chain sum misses span end-to-end by %g" gap;
  List.rev !errs

(* The validation pass: the cell under the full chaos audit
   (serializability, lock-table invariants, cache coherence, liveness;
   per-shard durability and cross-shard atomicity when sharded), plus
   the observability checks for observed cells.  Returns the result, its
   analysis and the errors found. *)
let validate c =
  let v = Experiments.Chaos.audit_run (run_spec c) in
  match v.Experiments.Chaos.v_result with
  | None -> (None, None, v.Experiments.Chaos.v_errors)
  | Some r ->
      let a, obs_errs =
        match r.Core.Simulator.obs with
        | Some o when c.observed ->
            let a = analyze o in
            (Some a, obs_errors o a)
        | None when c.observed -> (None, [ "no observability payload" ])
        | _ -> (None, [])
      in
      (Some r, a, v.Experiments.Chaos.v_errors @ obs_errs)
