(** The simulation runner, for every shard count.

    Builds one engine, one network, one metrics hub and one database —
    and [spec.n_shards] servers, each owning its contiguous slice of the
    page space with its own lock table, buffer pool, version table and
    WAL ({!Shard_map}).  Past one shard, one {!Router} per client splits
    traffic and coordinates presumed-abort two-phase commit.

    [n_shards = 1] is the paper's single-server topology: clients send
    straight to the server, with no router, relay process, peer wiring,
    or per-shard message counter, so it runs exactly the single-server
    event sequence.  [n_shards < 1] raises [Invalid_argument]. *)

(** One simulation to completion, plus the replication state
    {!Core.Simulator.aggregate} needs.  [?audit] collects every committed
    transaction's read/write version summary for the serializability
    check of {!Cc.History}.  [?inspect] runs after the simulation ends,
    with every shard server (in shard order) and the clients still
    intact, for end-state invariant sweeps (lock-table consistency,
    cache coherence, crash/recovery bookkeeping). *)
val run_with_stats :
  ?audit:Cc.History.t ->
  ?inspect:(Core.Server.t array -> Core.Client.t array -> unit) ->
  Core.Simulator.spec ->
  Core.Simulator.result * Core.Simulator.rep_stats

(** {!run_with_stats} without the replication state. *)
val run :
  ?audit:Cc.History.t ->
  ?inspect:(Core.Server.t array -> Core.Client.t array -> unit) ->
  Core.Simulator.spec ->
  Core.Simulator.result

(** [run_replicated ?jobs spec ~reps] runs [reps] independent seeds
    ([seed .. seed+reps-1]) and pools them with
    {!Core.Simulator.aggregate}.  With [jobs > 1] the replications run
    concurrently on a {!Sim.Pool} of domains; results are identical to
    the sequential run because every replication's randomness is derived
    from its own seed. *)
val run_replicated :
  ?jobs:int -> Core.Simulator.spec -> reps:int -> Core.Simulator.result
