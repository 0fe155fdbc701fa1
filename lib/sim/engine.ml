open Effect
open Effect.Deep

type _ Effect.t += Hold : float -> unit Effect.t
type _ Effect.t += Suspend : ((unit -> unit) -> unit) -> unit Effect.t

exception Process_exit

(* What a queued event does when it fires.  [Empty] marks a free slot, so a
   popped event keeps no closure or continuation alive. *)
type payload =
  | Empty
  | Call of (unit -> unit)
  | Start of (unit -> unit)
  | Resume of (unit, unit) continuation

type pstat = {
  mutable p_runs : int;
  mutable p_holds : int;
  mutable p_hold_time : float;
}

type process_profile = {
  pp_name : string;
  pp_runs : int;
  pp_holds : int;
  pp_hold_time : float;
}

type profile = {
  pr_events : int;
  pr_spawned : int;
  pr_holds : int;
  pr_wakes : int;
  pr_heap_hwm : int;
  pr_per_process : process_profile list;
}

(* An all-float record is stored flat, so writing the clock or a pending
   hold delay allocates nothing. *)
type floats = { mutable clock : float; mutable delay : float }

(* The event queue is a set of slots in parallel arrays plus a binary heap
   of slot ids ordered by (time, seq).  Sifting moves immediates only.
   [heap] is a permutation of all slot ids: positions [0, len) hold the
   queued events in heap order and positions [len, capacity) are the stack
   of free slots, so a pop frees its slot by writing it just past the new
   end.

   [owners] attributes each event to the process (by spawn name) whose
   execution scheduled it: continuations keep their process's name, plain
   [schedule] callbacks and anonymous spawns inherit the scheduler's.  The
   per-name table below is only touched when profiling is on. *)
type t = {
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable owners : string array;
  mutable payloads : payload array;
  mutable heap : int array;
  mutable len : int;
  fl : floats;
  mutable seq : int;
  mutable executed : int;
  mutable spawned : int;
  mutable stopping : bool;
  mutable holds : int;
  mutable wakes : int;
  mutable heap_hwm : int;
  mutable profiling : bool;
  mutable current : string;  (* owner of the event being executed *)
  mutable register : (unit -> unit) -> unit;  (* argument of a pending [Suspend] *)
  mutable handler : (unit, unit) handler;
  pstats : (string, pstat) Hashtbl.t;
}

let exit_ok = function Process_exit -> () | e -> raise e

(* Stands in until [create] installs the engine's own handler. *)
let unhandled = { retc = ignore; exnc = exit_ok; effc = (fun _ -> None) }

let now t = t.fl.clock
let events_executed t = t.executed
let processes_spawned t = t.spawned

let enable_profiling t = t.profiling <- true

let pstat t name =
  match Hashtbl.find_opt t.pstats name with
  | Some p -> p
  | None ->
      let p = { p_runs = 0; p_holds = 0; p_hold_time = 0.0 } in
      Hashtbl.add t.pstats name p;
      p

let profile t =
  let per =
    Hashtbl.fold
      (fun name p acc ->
        {
          pp_name = (if name = "" then "(anonymous)" else name);
          pp_runs = p.p_runs;
          pp_holds = p.p_holds;
          pp_hold_time = p.p_hold_time;
        }
        :: acc)
      t.pstats []
    |> List.sort (fun a b ->
           let c = Int.compare b.pp_runs a.pp_runs in
           if c <> 0 then c else String.compare a.pp_name b.pp_name)
  in
  {
    pr_events = t.executed;
    pr_spawned = t.spawned;
    pr_holds = t.holds;
    pr_wakes = t.wakes;
    pr_heap_hwm = t.heap_hwm;
    pr_per_process = per;
  }

(* {1 Event queue} *)

(* Slot [a] fires before slot [b]. *)
let[@inline] before t a b =
  let c = Float.compare (Float.Array.get t.times a) (Float.Array.get t.times b) in
  c < 0 || (c = 0 && t.seqs.(a) < t.seqs.(b))

(* Called when every slot is queued; the new slots join the free tail. *)
let grow t =
  let cap = Array.length t.heap in
  let ncap = 2 * cap in
  let times = Float.Array.make ncap 0.0 in
  Float.Array.blit t.times 0 times 0 cap;
  let seqs = Array.make ncap 0 in
  Array.blit t.seqs 0 seqs 0 cap;
  let owners = Array.make ncap "" in
  Array.blit t.owners 0 owners 0 cap;
  let payloads = Array.make ncap Empty in
  Array.blit t.payloads 0 payloads 0 cap;
  let heap = Array.init ncap Fun.id in
  Array.blit t.heap 0 heap 0 cap;
  t.times <- times;
  t.seqs <- seqs;
  t.owners <- owners;
  t.payloads <- payloads;
  t.heap <- heap

(* Move the hole at heap position [i] up until [slot] fits there. *)
let sift_up t i slot =
  let heap = t.heap in
  let i = ref i in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    before t slot heap.(parent)
  do
    let parent = (!i - 1) / 2 in
    heap.(!i) <- heap.(parent);
    i := parent
  done;
  heap.(!i) <- slot

(* Move the hole at the root down until [slot] fits there. *)
let sift_down t slot =
  let heap = t.heap and n = t.len in
  let i = ref 0 and sinking = ref true in
  while !sinking do
    let l = (2 * !i) + 1 in
    if l >= n then sinking := false
    else begin
      let c = if l + 1 < n && before t heap.(l + 1) heap.(l) then l + 1 else l in
      if before t heap.(c) slot then begin
        heap.(!i) <- heap.(c);
        i := c
      end
      else sinking := false
    end
  done;
  heap.(!i) <- slot

let[@inline] push t ~owner ~at payload =
  if t.len = Array.length t.heap then grow t;
  let slot = t.heap.(t.len) in
  t.seq <- t.seq + 1;
  Float.Array.set t.times slot at;
  t.seqs.(slot) <- t.seq;
  t.owners.(slot) <- owner;
  t.payloads.(slot) <- payload;
  let i = t.len in
  t.len <- i + 1;
  sift_up t i slot;
  if t.len > t.heap_hwm then t.heap_hwm <- t.len

(* Remove the root and park its slot at the head of the free tail. *)
let pop_root t =
  let heap = t.heap in
  let root = heap.(0) in
  let n = t.len - 1 in
  t.len <- n;
  if n > 0 then sift_down t heap.(n);
  heap.(n) <- root

let schedule_checked t ~owner ~at payload =
  if at < t.fl.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule: at=%g is before now=%g" at t.fl.clock);
  push t ~owner ~at payload

let schedule t ~at fn = schedule_checked t ~owner:t.current ~at (Call fn)

(* {1 Processes}

   Every process runs under the engine's one deep handler, which stays
   installed across each resumption: [Hold] reschedules the continuation
   later in time and [Suspend] hands a one-shot resumer to user code
   (conditions, mailboxes, ...).  Both effects are handled synchronously
   during the process's event, so [t.current] is the performing process
   and names its continuations.  The effect's argument passes to the
   preallocated [Some] callback through [t.fl.delay] or [t.register]. *)
let make_handler t =
  let on_hold (k : (unit, unit) continuation) =
    let d = t.fl.delay in
    if d < 0.0 then discontinue k (Invalid_argument "Engine.hold: negative")
    else begin
      t.holds <- t.holds + 1;
      let me = t.current in
      if t.profiling then begin
        let p = pstat t me in
        p.p_holds <- p.p_holds + 1;
        p.p_hold_time <- p.p_hold_time +. d
      end;
      push t ~owner:me ~at:(t.fl.clock +. d) (Resume k)
    end
  in
  let on_suspend (k : (unit, unit) continuation) =
    let register = t.register in
    let resumed = ref false in
    let me = t.current in
    let resume () =
      if !resumed then invalid_arg "Engine: process resumed twice";
      resumed := true;
      t.wakes <- t.wakes + 1;
      push t ~owner:me ~at:t.fl.clock (Resume k)
    in
    register resume
  in
  let some_hold = Some on_hold and some_suspend = Some on_suspend in
  {
    retc = ignore;
    exnc = exit_ok;
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) continuation -> unit) option ->
        match eff with
        | Hold d ->
            t.fl.delay <- d;
            some_hold
        | Suspend register ->
            t.register <- register;
            some_suspend
        | _ -> None);
  }

let initial_capacity = 64

let create () =
  let t =
    {
      times = Float.Array.make initial_capacity 0.0;
      seqs = Array.make initial_capacity 0;
      owners = Array.make initial_capacity "";
      payloads = Array.make initial_capacity Empty;
      heap = Array.init initial_capacity Fun.id;
      len = 0;
      fl = { clock = 0.0; delay = 0.0 };
      seq = 0;
      executed = 0;
      spawned = 0;
      stopping = false;
      holds = 0;
      wakes = 0;
      heap_hwm = 0;
      profiling = false;
      current = "";
      register = ignore;
      handler = unhandled;
      pstats = Hashtbl.create 32;
    }
  in
  t.handler <- make_handler t;
  t

let spawn t ?at ?name body =
  let at = match at with Some at -> at | None -> t.fl.clock in
  t.spawned <- t.spawned + 1;
  let owner = match name with Some n -> n | None -> t.current in
  schedule_checked t ~owner ~at (Start body)

let rec loop t limit =
  if (not t.stopping) && t.len > 0 then begin
    let slot = t.heap.(0) in
    let at = Float.Array.get t.times slot in
    if at > limit then t.fl.clock <- limit
    else begin
      pop_root t;
      let owner = t.owners.(slot) in
      let payload = t.payloads.(slot) in
      t.payloads.(slot) <- Empty;
      t.fl.clock <- at;
      t.executed <- t.executed + 1;
      t.current <- owner;
      if t.profiling then begin
        let p = pstat t owner in
        p.p_runs <- p.p_runs + 1
      end;
      (match payload with
      | Call fn -> fn ()
      | Start body -> match_with body () t.handler
      | Resume k -> continue k ()
      | Empty -> assert false);
      loop t limit
    end
  end

let run t ?until () =
  let limit = match until with Some u -> u | None -> Float.infinity in
  t.stopping <- false;
  loop t limit;
  t.current <- "";
  t.fl.clock

let stop t = t.stopping <- true
let hold d = perform (Hold d)
let suspend register = perform (Suspend register)
let exit_process () = raise Process_exit
