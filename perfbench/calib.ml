(* A fixed host-speed probe: hash-table and ordered-map lookups, closure
   calls and one short-lived block per step, the operation mix of the
   simulator's event loop, over tables of about a megabyte built once.
   It calls no simulator code and nothing it allocates survives a minor
   collection, so neither a change to the simulator nor the heap the
   simulator leaves behind moves it; the host's speed does. *)

module M = Map.Make (Int)

let keys = 1 lsl 15
let table = Hashtbl.create keys

let () =
  for k = 0 to keys - 1 do
    Hashtbl.replace table k (((k * 7919) + 12345) land (keys - 1))
  done

let map =
  List.fold_left
    (fun m k -> M.add k (fun x -> (x * 31) + k) m)
    M.empty
    (List.init 4096 (fun k -> k * 8))

let steps = 140_000

let run () =
  let j = ref 0 and acc = ref 0 in
  for _ = 1 to steps do
    let k = Hashtbl.find table !j in
    let f = M.find ((k lsr 3) lsl 3) map in
    let cell = Sys.opaque_identity (k, f !acc) in
    j := fst cell;
    acc := snd cell land 0xFFFFFFF
  done;
  !acc

(* Seconds one probe takes now. *)
let seconds () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (run ()));
  Unix.gettimeofday () -. t0
