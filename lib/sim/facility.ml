(* The float accumulators sit in an all-float record, which is stored
   flat: updating them allocates nothing. *)
type acc = {
  mutable busy_area : float;
  mutable queue_area : float;
  mutable last_stat : float;
  mutable window_start : float;
  mutable service_total : float;
}

type t = {
  eng : Engine.t;
  fname : string;
  cap : int;
  mutable busy : int;
  waiting : (unit -> unit) Queue.t;
  mutable max_q : int;
  mutable done_count : int;
  acc : acc;
}

let create eng ~name ?(capacity = 1) () =
  if capacity < 1 then invalid_arg "Facility.create: capacity < 1";
  {
    eng;
    fname = name;
    cap = capacity;
    busy = 0;
    waiting = Queue.create ();
    max_q = 0;
    done_count = 0;
    acc =
      {
        busy_area = 0.0;
        queue_area = 0.0;
        last_stat = Engine.now eng;
        window_start = Engine.now eng;
        service_total = 0.0;
      };
  }

let name f = f.fname
let capacity f = f.cap
let in_use f = f.busy
let queue_length f = Queue.length f.waiting

let account f =
  let a = f.acc in
  let t = Engine.now f.eng in
  let dt = t -. a.last_stat in
  if dt > 0.0 then begin
    a.busy_area <- a.busy_area +. (float_of_int f.busy *. dt);
    a.queue_area <- a.queue_area +. (float_of_int (Queue.length f.waiting) *. dt)
  end;
  a.last_stat <- t

let request f =
  account f;
  if f.busy < f.cap then f.busy <- f.busy + 1
  else
    Engine.suspend (fun resume ->
        Queue.add resume f.waiting;
        let q = Queue.length f.waiting in
        if q > f.max_q then f.max_q <- q)

let release f =
  account f;
  match Queue.take_opt f.waiting with
  | Some resume ->
      (* The freed unit passes straight to the head of the queue, so [busy]
         is unchanged — this keeps utilization accounting exact. *)
      resume ()
  | None ->
      if f.busy <= 0 then invalid_arg "Facility.release: not in use";
      f.busy <- f.busy - 1

let use f dt =
  request f;
  Engine.hold dt;
  f.done_count <- f.done_count + 1;
  f.acc.service_total <- f.acc.service_total +. dt;
  release f

let elapsed f = Engine.now f.eng -. f.acc.window_start

let utilization f =
  account f;
  let e = elapsed f in
  if e <= 0.0 then 0.0 else f.acc.busy_area /. (e *. float_of_int f.cap)

let mean_queue_length f =
  account f;
  let e = elapsed f in
  if e <= 0.0 then 0.0 else f.acc.queue_area /. e

let max_queue_length f = f.max_q

let busy_time f =
  account f;
  f.acc.busy_area

let completions f = f.done_count
let total_service_time f = f.acc.service_total

let reset_stats f =
  let a = f.acc in
  a.busy_area <- 0.0;
  a.queue_area <- 0.0;
  f.max_q <- Queue.length f.waiting;
  a.last_stat <- Engine.now f.eng;
  a.window_start <- Engine.now f.eng;
  f.done_count <- 0;
  a.service_total <- 0.0
