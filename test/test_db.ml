(* Tests for the database and workload models (lib/db). *)

open Db

let case name f = Alcotest.test_case name `Quick f
let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let small_db () =
  Database.create
    (Db_params.uniform ~n_classes:4 ~pages_per_class:10 ~object_size:3 ())

(* ------------------------------------------------------------------ *)
(* Db_params                                                           *)
(* ------------------------------------------------------------------ *)

let test_params_uniform () =
  let p = Db_params.uniform ~n_classes:40 ~pages_per_class:50 () in
  Alcotest.(check int) "total pages" 2000 (Db_params.total_pages p);
  Db_params.validate p

let test_params_invalid () =
  let bad_cluster =
    { (Db_params.uniform ~n_classes:1 ~pages_per_class:5 ()) with
      Db_params.cluster_factor = 1.5 }
  in
  Alcotest.check_raises "bad cluster factor"
    (Invalid_argument "Db_params: cluster_factor outside [0,1]") (fun () ->
      Db_params.validate bad_cluster);
  let oversized =
    Db_params.uniform ~n_classes:1 ~pages_per_class:5 ~object_size:6 ()
  in
  Alcotest.check_raises "object bigger than class"
    (Invalid_argument "Db_params: class 0 object size invalid") (fun () ->
      Db_params.validate oversized)

(* ------------------------------------------------------------------ *)
(* Database                                                            *)
(* ------------------------------------------------------------------ *)

let test_page_ids_global () =
  let db = small_db () in
  Alcotest.(check int) "total" 40 (Database.n_pages db);
  Alcotest.(check int) "class 0 atom 0" 0 (Database.page_id db ~cls:0 ~atom:0);
  Alcotest.(check int) "class 1 atom 0" 10 (Database.page_id db ~cls:1 ~atom:0);
  Alcotest.(check int) "class 3 atom 9" 39 (Database.page_id db ~cls:3 ~atom:9)

let test_class_of_page_inverts () =
  let db = small_db () in
  for cls = 0 to 3 do
    for atom = 0 to 9 do
      let page = Database.page_id db ~cls ~atom in
      Alcotest.(check int) "roundtrip" cls (Database.class_of_page db page)
    done
  done

let test_object_pages_consecutive () =
  let db = small_db () in
  let pages = Database.pages db { Database.cls = 1; start = 2 } in
  Alcotest.(check (list int)) "three consecutive" [ 12; 13; 14 ] pages

let test_object_pages_wrap () =
  let db = small_db () in
  let pages = Database.pages db { Database.cls = 0; start = 9 } in
  Alcotest.(check (list int)) "wraps inside class" [ 9; 0; 1 ] pages

let test_object_sharing () =
  (* objects starting at adjacent atoms share object_size - 1 atoms *)
  let db = small_db () in
  let a = Database.pages db { Database.cls = 2; start = 4 } in
  let b = Database.pages db { Database.cls = 2; start = 5 } in
  let shared = List.filter (fun p -> List.mem p b) a in
  Alcotest.(check int) "share 2 atoms" 2 (List.length shared)

let test_disk_assignment () =
  let db = small_db () in
  let page_of_class c = Database.page_id db ~cls:c ~atom:3 in
  Alcotest.(check int) "class 0 -> disk 0" 0
    (Database.disk_of_page db ~n_disks:2 (page_of_class 0));
  Alcotest.(check int) "class 1 -> disk 1" 1
    (Database.disk_of_page db ~n_disks:2 (page_of_class 1));
  Alcotest.(check int) "class 2 -> disk 0" 0
    (Database.disk_of_page db ~n_disks:2 (page_of_class 2))

let test_random_object_in_range () =
  let db = small_db () in
  let rng = Sim.Rng.create 11 in
  for _ = 1 to 1000 do
    let o = Database.random_object db rng in
    if o.Database.cls < 0 || o.Database.cls >= 4 then Alcotest.fail "class range";
    if o.Database.start < 0 || o.Database.start >= 10 then
      Alcotest.fail "start range"
  done

let test_seeks_fully_clustered () =
  let db = small_db () in
  (* cluster factor 1.0: one seek regardless of object size *)
  let rng = Sim.Rng.create 3 in
  let pages = Database.pages db { Database.cls = 0; start = 0 } in
  Alcotest.(check int) "one seek" 1 (Database.seeks_for_pages db rng pages);
  Alcotest.(check int) "empty" 0 (Database.seeks_for_pages db rng [])

let test_seeks_unclustered () =
  let prm =
    {
      (Db_params.uniform ~n_classes:1 ~pages_per_class:10 ~object_size:4 ()) with
      Db_params.cluster_factor = 0.0;
    }
  in
  let db = Database.create prm in
  let rng = Sim.Rng.create 3 in
  let pages = Database.pages db { Database.cls = 0; start = 0 } in
  Alcotest.(check int) "seek per page" 4 (Database.seeks_for_pages db rng pages)

let prop_class_of_page_total =
  QCheck.Test.make ~name:"class_of_page defined on all pages" ~count:100
    QCheck.(pair (int_range 1 8) (int_range 1 30))
    (fun (n_classes, pages_per_class) ->
      let db =
        Database.create (Db_params.uniform ~n_classes ~pages_per_class ())
      in
      let ok = ref true in
      for p = 0 to Database.n_pages db - 1 do
        let c = Database.class_of_page db p in
        if c < 0 || c >= n_classes then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Xact_params                                                         *)
(* ------------------------------------------------------------------ *)

let test_presets_valid () =
  Xact_params.validate (Xact_params.short_batch ());
  Xact_params.validate (Xact_params.large_batch ~prob_write:0.5 ());
  Xact_params.validate (Xact_params.interactive ~inter_xact_loc:0.75 ())

let test_preset_shapes () =
  let s = Xact_params.short_batch () in
  Alcotest.(check int) "short min" 4 s.Xact_params.min_xact_size;
  Alcotest.(check int) "short max" 12 s.Xact_params.max_xact_size;
  let l = Xact_params.large_batch () in
  Alcotest.(check int) "large min" 20 l.Xact_params.min_xact_size;
  Alcotest.(check int) "large max" 60 l.Xact_params.max_xact_size;
  let i = Xact_params.interactive () in
  Alcotest.(check (float 0.0)) "update delay" 5.0 i.Xact_params.update_delay;
  Alcotest.(check (float 0.0)) "internal delay" 2.0 i.Xact_params.internal_delay

let test_invalid_params_rejected () =
  let bad = { (Xact_params.short_batch ()) with Xact_params.prob_write = 2.0 } in
  Alcotest.check_raises "prob_write"
    (Invalid_argument "Xact_params: prob_write outside [0,1]") (fun () ->
      Xact_params.validate bad)

(* ------------------------------------------------------------------ *)
(* Workload                                                            *)
(* ------------------------------------------------------------------ *)

let mk_workload ?(prob_write = 0.2) ?(inter_xact_loc = 0.5) ?(seed = 7) () =
  let db =
    Database.create (Db_params.uniform ~n_classes:40 ~pages_per_class:50 ())
  in
  let prm = Xact_params.short_batch ~prob_write ~inter_xact_loc () in
  (db, Workload.create db prm ~rng:(Sim.Rng.create seed))

let test_profile_sizes () =
  let _, w = mk_workload () in
  for _ = 1 to 200 do
    let p = Workload.next w in
    let n = List.length p.Workload.steps in
    if n < 4 || n > 12 then Alcotest.failf "size out of range: %d" n
  done

let test_write_set_subset_of_read_set () =
  let _, w = mk_workload ~prob_write:0.5 () in
  for _ = 1 to 100 do
    let p = Workload.next w in
    let reads = Workload.profile_read_pages p in
    let writes = Workload.profile_write_pages p in
    List.iter
      (fun pg ->
        if not (List.mem pg reads) then Alcotest.fail "write outside read set")
      writes
  done

let test_zero_prob_write_no_writes () =
  let _, w = mk_workload ~prob_write:0.0 () in
  for _ = 1 to 50 do
    let p = Workload.next w in
    Alcotest.(check (list int)) "no writes" [] (Workload.profile_write_pages p)
  done

let test_inter_xact_set_bounded () =
  let _, w = mk_workload () in
  for _ = 1 to 50 do
    ignore (Workload.next w);
    let n = List.length (Workload.inter_xact_set w) in
    if n > 20 then Alcotest.failf "set overflow: %d" n
  done

let test_inter_xact_set_distinct () =
  let _, w = mk_workload ~inter_xact_loc:0.9 () in
  for _ = 1 to 50 do
    ignore (Workload.next w)
  done;
  let set = Workload.inter_xact_set w in
  let distinct = List.sort_uniq Database.compare_obj set in
  Alcotest.(check int) "no duplicates" (List.length distinct) (List.length set)

let test_locality_reuses_objects () =
  (* with loc=1.0 every read after the first transaction comes from the
     recent set, so very few distinct objects appear overall *)
  let _, w = mk_workload ~inter_xact_loc:1.0 ~seed:3 () in
  let all = ref [] in
  for _ = 1 to 30 do
    let p = Workload.next w in
    List.iter
      (fun s -> all := s.Workload.obj :: !all)
      p.Workload.steps
  done;
  let distinct = List.sort_uniq Database.compare_obj !all in
  if List.length distinct > 25 then
    Alcotest.failf "too many distinct objects for loc=1: %d"
      (List.length distinct)

let test_no_locality_spreads_objects () =
  let _, w = mk_workload ~inter_xact_loc:0.0 ~seed:3 () in
  let all = ref [] in
  for _ = 1 to 30 do
    let p = Workload.next w in
    List.iter (fun s -> all := s.Workload.obj :: !all) p.Workload.steps
  done;
  let distinct = List.sort_uniq Database.compare_obj !all in
  if List.length distinct < 100 then
    Alcotest.failf "too few distinct objects for loc=0: %d"
      (List.length distinct)

let test_batch_delays_zero () =
  let _, w = mk_workload () in
  let p = Workload.next w in
  List.iter
    (fun s ->
      Alcotest.(check (float 0.0)) "update delay" 0.0 s.Workload.update_delay;
      Alcotest.(check (float 0.0)) "internal delay" 0.0 s.Workload.internal_delay)
    p.Workload.steps

let test_deterministic_given_seed () =
  let _, w1 = mk_workload ~seed:42 () in
  let _, w2 = mk_workload ~seed:42 () in
  for _ = 1 to 20 do
    let p1 = Workload.next w1 and p2 = Workload.next w2 in
    Alcotest.(check (list int)) "same reads"
      (Workload.profile_read_pages p1)
      (Workload.profile_read_pages p2)
  done

let prop_write_rate_tracks_prob =
  QCheck.Test.make ~name:"write rate approximates prob_write" ~count:5
    QCheck.(float_range 0.1 0.9)
    (fun pw ->
      let _, w = mk_workload ~prob_write:pw ~inter_xact_loc:0.0 () in
      let reads = ref 0 and writes = ref 0 in
      for _ = 1 to 400 do
        let p = Workload.next w in
        List.iter
          (fun s ->
            reads := !reads + List.length s.Workload.read_pages;
            writes := !writes + List.length s.Workload.write_pages)
          p.Workload.steps
      done;
      let rate = float_of_int !writes /. float_of_int !reads in
      Float.abs (rate -. pw) < 0.05)


let test_mix_draws_both_types () =
  let db =
    Database.create (Db_params.uniform ~n_classes:40 ~pages_per_class:50 ())
  in
  let w =
    Workload.create_mix db
      [
        (0.5, Xact_params.short_batch ());
        (0.5, Xact_params.large_batch ());
      ]
      ~rng:(Sim.Rng.create 7)
  in
  let small = ref 0 and large = ref 0 in
  for _ = 1 to 200 do
    let p = Workload.next w in
    let n = List.length p.Workload.steps in
    if n <= 12 then incr small
    else if n >= 20 then incr large
    else Alcotest.failf "size %d belongs to neither type" n
  done;
  if !small < 50 || !large < 50 then
    Alcotest.failf "unbalanced mix: %d small, %d large" !small !large

let test_mix_weights_respected () =
  let db =
    Database.create (Db_params.uniform ~n_classes:40 ~pages_per_class:50 ())
  in
  let w =
    Workload.create_mix db
      [
        (0.9, Xact_params.short_batch ());
        (0.1, Xact_params.large_batch ());
      ]
      ~rng:(Sim.Rng.create 7)
  in
  let large = ref 0 in
  let n = 1000 in
  for _ = 1 to n do
    if List.length (Workload.next w).Workload.steps >= 20 then incr large
  done;
  let rate = float_of_int !large /. float_of_int n in
  if Float.abs (rate -. 0.1) > 0.03 then
    Alcotest.failf "large-type rate %.3f, expected ~0.1" rate

let test_mix_rejects_bad_input () =
  let db =
    Database.create (Db_params.uniform ~n_classes:4 ~pages_per_class:10 ())
  in
  Alcotest.check_raises "empty mix"
    (Invalid_argument "Workload.create_mix: empty mix") (fun () ->
      ignore (Workload.create_mix db [] ~rng:(Sim.Rng.create 1)));
  Alcotest.check_raises "bad weight"
    (Invalid_argument "Workload.create_mix: non-positive weight") (fun () ->
      ignore
        (Workload.create_mix db
           [ (0.0, Xact_params.short_batch ()) ]
           ~rng:(Sim.Rng.create 1)))

(* The list-based InterXactSet generator that the array-backed one
   replaced, kept as a reference: the same draws from the same stream, with
   the set rebuilt by [List.filter]/[List.filteri] on every step. *)
module Ref_workload = struct
  type t = {
    db : Database.t;
    mix : (float * Xact_params.t) list;
    rng : Sim.Rng.t;
    mutable prm : Xact_params.t;
    mutable recent : Database.obj list;
  }

  let create_mix db mix ~rng =
    let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 mix in
    let mix = List.map (fun (w, prm) -> (w /. total, prm)) mix in
    { db; mix; rng; prm = snd (List.hd mix); recent = [] }

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

  let remember t obj =
    let size = t.prm.Xact_params.inter_xact_set_size in
    if size > 0 then begin
      let without =
        List.filter (fun o -> Database.compare_obj o obj <> 0) t.recent
      in
      let trimmed =
        if List.length without >= size then
          List.filteri (fun i _ -> i < size - 1) without
        else without
      in
      t.recent <- obj :: trimmed
    end

  let skewed_object t skew =
    let n = Database.n_classes t.db in
    let cdf = Array.make n 0.0 and acc = ref 0.0 in
    for k = 0 to n - 1 do
      acc := !acc +. (1.0 /. Float.pow (float_of_int (k + 1)) skew);
      cdf.(k) <- !acc
    done;
    let cdf = Array.map (fun c -> c /. !acc) cdf in
    let u = Sim.Rng.float t.rng in
    let rec find k = if k >= n - 1 || u < cdf.(k) then k else find (k + 1) in
    let cls = find 0 in
    let atoms = (Database.params t.db).Db_params.n_pages.(cls) in
    { Database.cls; start = Sim.Rng.int t.rng atoms }

  let pick_object t =
    if t.recent <> [] && Sim.Rng.bernoulli t.rng t.prm.Xact_params.inter_xact_loc
    then List.nth t.recent (Sim.Rng.int t.rng (List.length t.recent))
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
      Workload.obj;
      read_pages;
      write_pages;
      update_delay =
        Sim.Rng.exponential t.rng ~mean:t.prm.Xact_params.update_delay;
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
      Workload.steps;
      external_delay =
        Sim.Rng.exponential t.rng ~mean:t.prm.Xact_params.external_delay;
    }
end

(* Small database (40 objects) so objects repeat often; mixes of one to
   three types whose set sizes include 0 and 1; runs up to 300
   transactions.  Every profile and the set after it must match. *)
let prop_inter_xact_set_matches_list_model =
  let gen_type =
    QCheck.Gen.(
      map
        (fun (((size, loc), (lo, span)), (skew, w)) ->
          ( float_of_int w,
            {
              (Xact_params.short_batch ~prob_write:0.3 ~inter_xact_loc:loc ())
              with
              Xact_params.inter_xact_set_size = size;
              min_xact_size = lo;
              max_xact_size = lo + span;
              class_skew = skew;
            } ))
        (pair
           (pair
              (pair (oneofl [ 0; 1; 2; 3; 5; 20 ]) (oneofl [ 0.0; 0.5; 0.9; 1.0 ]))
              (pair (int_range 1 4) (int_range 0 8)))
           (pair (oneofl [ 0.0; 0.0; 0.9 ]) (int_range 1 3))))
  in
  QCheck.Test.make ~name:"InterXactSet matches list-based reference model"
    ~count:300
    QCheck.(
      make
        Gen.(
          triple (list_size (int_range 1 3) gen_type) (int_range 1 300)
            (int_bound 1_000_000)))
    (fun (mix, n_xacts, seed) ->
      let db = small_db () in
      let w = Workload.create_mix db mix ~rng:(Sim.Rng.create seed) in
      let r = Ref_workload.create_mix db mix ~rng:(Sim.Rng.create seed) in
      for i = 1 to n_xacts do
        if Workload.next w <> Ref_workload.next r then
          QCheck.Test.fail_reportf "transaction %d: profiles differ" i;
        if Workload.inter_xact_set w <> r.Ref_workload.recent then
          QCheck.Test.fail_reportf "transaction %d: InterXactSets differ" i
      done;
      true)

let suites =
  [
    ( "db_params",
      [
        case "uniform" test_params_uniform;
        case "invalid rejected" test_params_invalid;
      ] );
    ( "database",
      [
        case "global page ids" test_page_ids_global;
        case "class_of_page inverts page_id" test_class_of_page_inverts;
        case "object pages consecutive" test_object_pages_consecutive;
        case "object pages wrap" test_object_pages_wrap;
        case "adjacent objects share atoms" test_object_sharing;
        case "classes round-robin to disks" test_disk_assignment;
        case "random object in range" test_random_object_in_range;
        case "clustered object: one seek" test_seeks_fully_clustered;
        case "unclustered object: seek per page" test_seeks_unclustered;
      ] );
    qsuite "database-props" [ prop_class_of_page_total ];
    ( "xact_params",
      [
        case "presets valid" test_presets_valid;
        case "preset shapes" test_preset_shapes;
        case "invalid rejected" test_invalid_params_rejected;
      ] );
    ( "workload",
      [
        case "profile sizes in range" test_profile_sizes;
        case "write set subset of read set" test_write_set_subset_of_read_set;
        case "prob_write 0 means no writes" test_zero_prob_write_no_writes;
        case "inter-xact set bounded" test_inter_xact_set_bounded;
        case "inter-xact set distinct" test_inter_xact_set_distinct;
        case "high locality reuses objects" test_locality_reuses_objects;
        case "zero locality spreads objects" test_no_locality_spreads_objects;
        case "batch delays zero" test_batch_delays_zero;
        case "deterministic per seed" test_deterministic_given_seed;
        case "mix draws both types" test_mix_draws_both_types;
        case "mix weights respected" test_mix_weights_respected;
        case "mix rejects bad input" test_mix_rejects_bad_input;
      ] );
    qsuite "workload-props"
      [ prop_write_rate_tracks_prob; prop_inter_xact_set_matches_list_model ];
  ]

let () = Alcotest.run "db" suites
