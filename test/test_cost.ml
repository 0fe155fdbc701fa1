(* Allocation ceilings for whole simulations: minor words per commit,
   set-up included, of two fixed benchmark cells.  Like the
   [alloc] suite of test_sim.ml the figures are deterministic for a given
   compiler and build profile (these were measured in the dev profile);
   each ceiling sits about 15% above the measured cost, so a change that
   brings back a per-request or per-transaction throwaway structure in the
   handler layers fails here. *)

let case name f = Alcotest.test_case name `Quick f

(* The cells of perfbench's read-local and write-2pc workloads: the Table 5
   system over a 40-class x 50-page database, no warmup, seed 1. *)
let spec ~clients ~shards ~pw ~loc ~skew ~commits algo =
  {
    Core.Simulator.cfg = Core.Sys_params.table5 ~n_clients:clients ();
    db_params = Db.Db_params.uniform ~n_classes:40 ~pages_per_class:50 ();
    xact_params =
      {
        (Db.Xact_params.short_batch ~prob_write:pw ~inter_xact_loc:loc ())
        with
        Db.Xact_params.class_skew = skew;
      };
    mix = None;
    algo;
    n_shards = shards;
    seed = 1;
    warmup_commits = 0;
    measured_commits = commits;
    max_sim_time = 1e6;
    fault = Fault.Plan.none;
    obs = Obs.Config.off;
  }

let check_words_per_commit label ~ceiling spec =
  let w0 = Gc.minor_words () in
  let r = Shard.Shard_sim.run spec in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) (label ^ ": commits") spec.Core.Simulator.measured_commits
    r.Core.Simulator.commits;
  let per_commit = words /. float_of_int r.Core.Simulator.commits in
  Printf.printf "%s: %.0f minor words per commit\n" label per_commit;
  if per_commit > ceiling then
    Alcotest.failf "%s: %.0f minor words per commit, ceiling %g" label
      per_commit ceiling

let test_read_local_callback () =
  check_words_per_commit "read-local callback" ~ceiling:3680.0
    (spec ~clients:30 ~shards:1 ~pw:0.05 ~loc:0.75 ~skew:0.0 ~commits:500
       Core.Proto.Callback)

(* The full 1,000 commits of the perfbench cell: the deadlock checks walk
   a lock table that fills as the run goes on, so a walk that allocates
   per entry costs more per commit the longer the run.  At 200 commits
   such a walk came out only 4% above a 1.15x ceiling. *)
let test_write_2pc_2pl_zipf () =
  check_words_per_commit "write-2pc 2PL Zipf" ~ceiling:14500.0
    (spec ~clients:40 ~shards:4 ~pw:0.5 ~loc:0.25 ~skew:0.9 ~commits:1000
       (Core.Proto.Two_phase Core.Proto.Inter))

let () =
  Alcotest.run "cost"
    [
      ( "cost",
        [
          case "read-local callback cell" test_read_local_callback;
          case "write-2pc 2PL Zipf-hot cell" test_write_2pc_2pl_zipf;
        ] );
    ]
