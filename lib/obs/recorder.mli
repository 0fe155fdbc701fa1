(** Per-domain trace recorder: an allocation-light ring/chunk buffer of
    typed {!Event.t} values keyed by [(sim_time, seq)].

    The recorder replaces the old "string sink that only works at [-j 1]"
    model: the runner ([Shard.Shard_sim]) installs a fresh recorder in
    whatever domain runs the simulation — the caller's or a {!Sim.Pool}
    worker's — and the filled buffer returns to the caller by value
    inside the run's result, so traces from parallel runs merge
    deterministically afterwards.

    The sink slot is domain-local.  Within one domain there is exactly one
    active target at a time: either a recorder buffer or a legacy callback
    installed with {!set_sink}; {!with_recorder} and the simulator
    save/restore around each run, so a caller-installed sink is back in
    place when the run completes. *)

(** One recorded event.  [seq] is the recorder-local emission index, so
    [(time, seq)] totally orders a buffer even among equal timestamps. *)
type entry = { time : float; seq : int; ev : Event.t }

type t

val default_limit : int

(** [create ?limit ()] is an empty recorder holding at most [limit]
    entries (default {!default_limit}).  Past the limit the buffer wraps:
    the oldest entries are overwritten and counted in {!dropped}. *)
val create : ?limit:int -> unit -> t

(** Entries currently held. *)
val length : t -> int

(** Entries overwritten after the buffer wrapped. *)
val dropped : t -> int

(** Append one event at simulated time [time]. *)
val add : t -> time:float -> Event.t -> unit

(** Held entries in emission order (ascending [seq]). *)
val entries : t -> entry array

val iter : t -> (entry -> unit) -> unit

(** {1 The domain-local sink}

    One slot per domain; {!emit} dispatches to whatever this domain
    installed, and is a no-op when the slot is empty. *)

(** Install a legacy callback sink in this domain. *)
val set_sink : (float -> Event.t -> unit) -> unit

(** Empty this domain's slot. *)
val clear_sink : unit -> unit

(** Install [t] as this domain's recording target. *)
val install : t -> unit

(** Is any target installed in this domain? *)
val active : unit -> bool

(** Emit an event to this domain's target (no-op when none). *)
val emit : float -> Event.t -> unit

(** Opaque snapshot of the slot, for save/restore around a run. *)
type saved

val save : unit -> saved
val restore : saved -> unit

(** [with_recorder f] installs a fresh recorder, runs [f], restores the
    previously installed target (even if [f] raises), and returns [f]'s
    value with the filled recorder. *)
val with_recorder : ?limit:int -> (unit -> 'a) -> 'a * t
