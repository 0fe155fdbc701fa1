type step = {
  obj : Database.obj;
  read_pages : int list;
  write_pages : int list;
  update_delay : float;
  internal_delay : float;
}

type profile = { steps : step list; external_delay : float }

type t = {
  db : Database.t;
  mix : (float * Xact_params.t) list; (* weights normalized at creation *)
  rng : Sim.Rng.t;
  mutable prm : Xact_params.t; (* parameters of the current transaction *)
  recent : Database.obj array; (* InterXactSet, most recent first ... *)
  mutable n_recent : int; (* ... in [recent.(0 .. n_recent - 1)] *)
  mutable zipf : (float * float array) option; (* cached (skew, class CDF) *)
}

let create_mix db mix ~rng =
  if mix = [] then invalid_arg "Workload.create_mix: empty mix";
  List.iter
    (fun (w, prm) ->
      if w <= 0.0 then invalid_arg "Workload.create_mix: non-positive weight";
      Xact_params.validate prm)
    mix;
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 mix in
  let mix = List.map (fun (w, prm) -> (w /. total, prm)) mix in
  let capacity =
    List.fold_left
      (fun acc (_, prm) -> max acc prm.Xact_params.inter_xact_set_size)
      0 mix
  in
  {
    db;
    mix;
    rng;
    prm = snd (List.hd mix);
    recent = Array.make capacity { Database.cls = 0; start = 0 };
    n_recent = 0;
    zipf = None;
  }

let create db prm ~rng = create_mix db [ (1.0, prm) ] ~rng

let params t = snd (List.hd t.mix)

let pick_type t =
  match t.mix with
  | [ (_, prm) ] -> prm
  | mix ->
      let u = Sim.Rng.float t.rng in
      let rec go acc = function
        | [] -> snd (List.hd mix)
        | (w, prm) :: rest -> if u < acc +. w then prm else go (acc +. w) rest
      in
      go 0.0 mix

let inter_xact_set t = List.init t.n_recent (fun i -> t.recent.(i))

(* Position of [obj] in [recent.(i .. n - 1)], or [n]. *)
let rec index_of recent n obj i =
  if i = n || Database.compare_obj recent.(i) obj = 0 then i
  else index_of recent n obj (i + 1)

(* LRU update: re-reading an object moves it to the front rather than
   duplicating it, so the set holds distinct recent objects.  The array
   fits the largest set size in the mix; each call cuts the set to the
   current type's size. *)
let remember t obj =
  let size = t.prm.Xact_params.inter_xact_set_size in
  if size > 0 then begin
    let n = t.n_recent in
    let at = index_of t.recent n obj 0 in
    let others = if at < n then n - 1 else n in
    let kept = if others >= size then size - 1 else others in
    (* slots past [min at kept] already hold the right objects *)
    for i = min at kept downto 1 do
      t.recent.(i) <- t.recent.(i - 1)
    done;
    t.recent.(0) <- obj;
    t.n_recent <- kept + 1
  end

(* Zipf(theta) over classes: class [k] with probability proportional to
   [1/(k+1)^theta].  The normalized CDF is cached per skew value; a mix
   alternating between skews just rebuilds a 40-entry array. *)
let zipf_cdf t skew =
  match t.zipf with
  | Some (s, cdf) when s = skew -> cdf
  | _ ->
      let n = Database.n_classes t.db in
      let cdf = Array.make n 0.0 in
      let acc = ref 0.0 in
      for k = 0 to n - 1 do
        acc := !acc +. (1.0 /. Float.pow (float_of_int (k + 1)) skew);
        cdf.(k) <- !acc
      done;
      for k = 0 to n - 1 do
        cdf.(k) <- cdf.(k) /. !acc
      done;
      t.zipf <- Some (skew, cdf);
      cdf

let skewed_object t skew =
  let cdf = zipf_cdf t skew in
  let u = Sim.Rng.float t.rng in
  let n = Array.length cdf in
  let rec find k = if k >= n - 1 || u < cdf.(k) then k else find (k + 1) in
  let cls = find 0 in
  let atoms = (Database.params t.db).Db_params.n_pages.(cls) in
  { Database.cls; start = Sim.Rng.int t.rng atoms }

let pick_object t =
  let p = t.prm.Xact_params.inter_xact_loc in
  if t.n_recent > 0 && Sim.Rng.bernoulli t.rng p then
    t.recent.(Sim.Rng.int t.rng t.n_recent)
  else if t.prm.Xact_params.class_skew > 0.0 then
    skewed_object t t.prm.Xact_params.class_skew
  else Database.random_object t.db t.rng

let make_step t =
  let obj = pick_object t in
  remember t obj;
  let read_pages = Database.pages t.db obj in
  let pw = t.prm.Xact_params.prob_write in
  let write_pages =
    if pw <= 0.0 then []
    else List.filter (fun _ -> Sim.Rng.bernoulli t.rng pw) read_pages
  in
  {
    obj;
    read_pages;
    write_pages;
    update_delay = Sim.Rng.exponential t.rng ~mean:t.prm.Xact_params.update_delay;
    internal_delay =
      Sim.Rng.exponential t.rng ~mean:t.prm.Xact_params.internal_delay;
  }

let next t =
  t.prm <- pick_type t;
  let size =
    Sim.Rng.uniform_int t.rng t.prm.Xact_params.min_xact_size
      t.prm.Xact_params.max_xact_size
  in
  let steps = List.init size (fun _ -> make_step t) in
  {
    steps;
    external_delay =
      Sim.Rng.exponential t.rng ~mean:t.prm.Xact_params.external_delay;
  }

let distinct pages =
  List.sort_uniq Int.compare pages

let profile_read_pages p =
  distinct (List.concat_map (fun s -> s.read_pages) p.steps)

let profile_write_pages p =
  distinct (List.concat_map (fun s -> s.write_pages) p.steps)
