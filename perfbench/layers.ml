(* Layer benches: each times one layer's public calls from outside, on a
   problem sized from the traced run of the workload (event-heap
   high-water mark, client count, cache size, pages, write share).
   Inputs are drawn before the clock starts, so the figures are the
   layer's own cost.  Every bench reports the best of [reps] repetitions
   in nanoseconds per operation. *)

type sizing = {
  heap_hwm : int;
  clients : int;
  cache_size : int;
  pages : int;
  write_share : float;
  locality : float;
}

let now = Unix.gettimeofday
let reps = 3

(* Best of [reps] timings of [f], which returns its operation count. *)
let best_ns f =
  let best = ref infinity in
  for _ = 1 to reps do
    Gc.compact ();
    let t0 = now () in
    let ops = f () in
    let dt = now () -. t0 in
    best := Float.min !best (dt *. 1e9 /. float_of_int (max 1 ops))
  done;
  !best

(* [Sim.Heap.add]/[pop] at the engine's high-water depth, keys rising
   like a simulation clock. *)
let heap s =
  let n = 400_000 in
  let rng = Sim.Rng.create 1 in
  let delays = Array.init n (fun _ -> Sim.Rng.exponential rng ~mean:1.0) in
  best_ns (fun () ->
      let h = Sim.Heap.create ~cmp:Float.compare in
      for i = 1 to max 1 s.heap_hwm do
        Sim.Heap.add h delays.(i mod n)
      done;
      let t = ref 0.0 in
      for i = 0 to n - 1 do
        Sim.Heap.add h (!t +. delays.(i));
        match Sim.Heap.pop h with Some x -> t := x | None -> ()
      done;
      2 * n)

(* [Sim.Engine.spawn]/[hold]/[suspend]: one process per client holding
   in a loop, parking every fourth step until a waker resumes it, and
   spawning a short-lived child every eighth. *)
let engine s =
  let iters = 4000 in
  let procs = max 1 s.clients in
  best_ns (fun () ->
      let eng = Sim.Engine.create () in
      let rng = Sim.Rng.create 2 in
      let parked = Queue.create () in
      let finished = ref 0 in
      for _ = 1 to procs do
        Sim.Engine.spawn eng (fun () ->
            for i = 1 to iters do
              Sim.Engine.hold (Sim.Rng.exponential rng ~mean:1.0);
              if i land 7 = 0 then
                Sim.Engine.spawn eng (fun () -> Sim.Engine.hold 0.1);
              if i land 3 = 0 then
                Sim.Engine.suspend (fun resume -> Queue.push resume parked)
            done;
            incr finished)
      done;
      Sim.Engine.spawn eng (fun () ->
          while !finished < procs do
            Sim.Engine.hold 0.5;
            while not (Queue.is_empty parked) do
              (Queue.pop parked) ()
            done
          done);
      ignore (Sim.Engine.run eng ());
      Sim.Engine.events_executed eng)

(* [Sim.Facility.use] on one FCFS server shared by every client. *)
let facility s =
  let iters = 3000 in
  let procs = max 1 s.clients in
  best_ns (fun () ->
      let eng = Sim.Engine.create () in
      let rng = Sim.Rng.create 3 in
      let f = Sim.Facility.create eng ~name:"cpu" () in
      for _ = 1 to procs do
        Sim.Engine.spawn eng (fun () ->
            for _ = 1 to iters do
              Sim.Facility.use f (Sim.Rng.exponential rng ~mean:0.001);
              Sim.Engine.hold (Sim.Rng.exponential rng ~mean:0.02)
            done)
      done;
      ignore (Sim.Engine.run eng ());
      procs * iters)

(* [Net.Network.post] of tagged control and page messages from every
   client over the Table 5 network. *)
let network s =
  let iters = 1500 in
  let procs = max 1 s.clients in
  let cfg = Core.Sys_params.table5 () in
  let net_prm = cfg.Core.Sys_params.net in
  best_ns (fun () ->
      let eng = Sim.Engine.create () in
      let rng = Sim.Rng.create 4 in
      let net = Net.Network.create eng ~rng net_prm in
      let delivered = ref 0 in
      for p = 0 to procs - 1 do
        let tag =
          {
            Obs.Causal.tg_parent = -1;
            tg_xid = p;
            tg_owner = p;
            tg_kind = "fetch";
            tg_src = Obs.Causal.Client p;
            tg_dst = Obs.Causal.Shard 0;
            tg_retry = 0;
          }
        in
        Sim.Engine.spawn eng (fun () ->
            for i = 1 to iters do
              let bytes =
                if i land 1 = 0 then cfg.Core.Sys_params.page_size
                else cfg.Core.Sys_params.control_msg_bytes
              in
              Net.Network.post ~tag net ~bytes ~deliver:(fun _ ->
                  incr delivered);
              Sim.Engine.hold (Sim.Rng.exponential rng ~mean:0.2)
            done)
      done;
      ignore (Sim.Engine.run eng ());
      if !delivered <> procs * iters then failwith "network: lost messages";
      procs * iters)

(* [Cc.Lock_table.request]/[release]: clients lock random pages in the
   workload's write share, give up on a conflict, and release their
   locks every eight grants, as a transaction would at commit. *)
let lock_table s =
  let n = 400_000 in
  let owners = max 1 s.clients in
  let rng = Sim.Rng.create 5 in
  let who = Array.init n (fun _ -> Sim.Rng.int rng owners) in
  let page = Array.init n (fun _ -> Sim.Rng.int rng s.pages) in
  let write = Array.init n (fun _ -> Sim.Rng.bernoulli rng s.write_share) in
  best_ns (fun () ->
      let lt = Cc.Lock_table.create () in
      let held = Array.make owners [] in
      let ops = ref 0 in
      for i = 0 to n - 1 do
        let o = who.(i) in
        if List.length held.(o) >= 8 then begin
          List.iter (fun p -> Cc.Lock_table.release lt ~page:p o) held.(o);
          ops := !ops + List.length held.(o);
          held.(o) <- []
        end;
        let p = page.(i) in
        let mode = if write.(i) then Cc.Lock_table.X else Cc.Lock_table.S in
        incr ops;
        match Cc.Lock_table.request lt ~page:p o mode ~wake:ignore with
        | Cc.Lock_table.Granted -> held.(o) <- p :: held.(o)
        | Cc.Lock_table.Blocked _ ->
            Cc.Lock_table.cancel_wait lt ~page:p o;
            incr ops
      done;
      !ops)

(* [Storage.Lru_pool.touch]/[insert] on a client cache: a [locality]
   share of accesses re-reads a small hot set, the rest is uniform. *)
let lru s =
  let n = 600_000 in
  let rng = Sim.Rng.create 6 in
  let hot = Array.init 160 (fun _ -> Sim.Rng.int rng s.pages) in
  let acc =
    Array.init n (fun _ ->
        if Sim.Rng.bernoulli rng s.locality then Sim.Rng.choose rng hot
        else Sim.Rng.int rng s.pages)
  in
  let dirty = Array.init n (fun _ -> Sim.Rng.bernoulli rng s.write_share) in
  best_ns (fun () ->
      let pool = Storage.Lru_pool.create ~capacity:(max 1 s.cache_size) in
      for i = 0 to n - 1 do
        let p = acc.(i) in
        if not (Storage.Lru_pool.touch pool p) then
          ignore (Storage.Lru_pool.insert pool p ~dirty:dirty.(i))
      done;
      n)

(* [Storage.Log_manager.append_commit] then [force_commit], as the
   server commits a transaction with the workload's mean update count. *)
let log_manager s =
  let n = 30_000 in
  let n_updates = max 1 (int_of_float (Float.round (8.0 *. s.write_share))) in
  let cfg = Core.Sys_params.table5 () in
  best_ns (fun () ->
      let eng = Sim.Engine.create () in
      let rng = Sim.Rng.create 7 in
      let disk =
        Storage.Disk.create eng ~rng ~name:"log" cfg.Core.Sys_params.disk
      in
      let log = Storage.Log_manager.create eng ~disk () in
      Sim.Engine.spawn eng (fun () ->
          for xid = 1 to n do
            let updates = List.init n_updates (fun k -> ((xid * 7) + k, xid)) in
            Storage.Log_manager.append_commit log ~xid ~updates;
            Storage.Log_manager.force_commit log ~n_updates
          done);
      ignore (Sim.Engine.run eng ());
      n)

(* The emit functions of all three recorders with their sinks
   installed: [Recorder.emit], [Span.open_span]/[close_span] and
   [Causal.send]/[recv]; the rings wrap, as a long run's would. *)
let obs_emit () =
  let n = 200_000 in
  let limit = 65_536 in
  let tag =
    {
      Obs.Causal.tg_parent = 0;
      tg_xid = 1;
      tg_owner = 1;
      tg_kind = "fetch";
      tg_src = Obs.Causal.Client 1;
      tg_dst = Obs.Causal.Shard 0;
      tg_retry = 0;
    }
  in
  let ev = Obs.Event.Commit { client = 1; xid = 1; n_updates = 2 } in
  best_ns (fun () ->
      let (), _ =
        Obs.Recorder.with_recorder ~limit (fun () ->
            for i = 1 to n do
              Obs.Recorder.emit (float_of_int i) ev
            done)
      in
      let (), _ =
        Obs.Span.with_spans ~limit (fun () ->
            for i = 1 to n do
              let time = float_of_int i in
              let id =
                Obs.Span.open_span ~time ~track:(Obs.Span.Client 1)
                  ~kind:Obs.Span.Fetch_wait ~parent:(-1) ~xid:i
              in
              Obs.Span.close_span ~time id
            done)
      in
      let (), _ =
        Obs.Causal.with_causal ~limit (fun () ->
            for i = 1 to n do
              let time = float_of_int i in
              let id = Obs.Causal.send ~time ~tag ~bytes:100 ~pkts:1 ~dup:0 in
              Obs.Causal.recv ~time id
            done)
      in
      5 * n)

(* Every bench, by metric name. *)
let all s =
  [
    ("heap.ns_per_op", heap s);
    ("engine.ns_per_event", engine s);
    ("facility.ns_per_use", facility s);
    ("network.ns_per_post", network s);
    ("lock_table.ns_per_op", lock_table s);
    ("lru.ns_per_op", lru s);
    ("log.ns_per_force", log_manager s);
    ("obs.emit_ns", obs_emit ());
  ]
