(* Clocks, order statistics, peak-heap sampling and the result record
   every workload fills in. *)

module Json = Psm_serve.Json

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile: the smallest sample with at least [q] of the
   samples at or below it. *)
let percentile a q =
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* A full major collection before a timed phase, so one phase's garbage is
   not collected on the next phase's clock. The traced run turns it off
   (in its untraced and traced passes alike): its wall-clock is meant to be
   the layers'. *)
let quiescing = ref true
let quiesce () = if !quiescing then Gc.full_major ()

(* ---------- peak live major heap ---------- *)

(* Peak live major heap of this process while [f] runs, sampled at the end
   of every major cycle (post-sweep, so floating garbage is excluded) and
   once more after [f]. *)
let with_peak_live f =
  Gc.full_major ();
  let peak = ref (Gc.quick_stat ()).Gc.live_words in
  let sample () =
    let live = (Gc.quick_stat ()).Gc.live_words in
    if live > !peak then peak := live
  in
  let alarm = Gc.create_alarm sample in
  let result = Fun.protect ~finally:(fun () -> Gc.delete_alarm alarm) f in
  Gc.full_major ();
  sample ();
  (result, !peak)

let words_to_mib w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1048576.

(* ---------- correctness accounting ---------- *)

(* Every check is one attempted operation; a failing check is one failed
   operation and leaves a line on stderr. *)
type checks = { mutable attempted : int; mutable failed : int }

let checks = { attempted = 0; failed = 0 }

let check name ok =
  checks.attempted <- checks.attempted + 1;
  if not ok then begin
    checks.failed <- checks.failed + 1;
    Printf.eprintf "check failed: %s\n%!" name
  end

(* Count [n] operations at once, [bad] of which failed. *)
let check_many name ~n ~bad =
  checks.attempted <- checks.attempted + n;
  checks.failed <- checks.failed + bad;
  if bad > 0 then Printf.eprintf "check failed: %s (%d of %d)\n%!" name bad n

(* ---------- output ---------- *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let metrics_json ms =
  Json.Obj
    (List.map
       (fun m ->
         ( m.name,
           Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ] ))
       ms)

(* The last line of standard output: exactly these four keys. *)
let print_result ms =
  let correct = checks.failed = 0 && checks.attempted > 0 in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int (max 1 checks.attempted)));
            ("failed", Json.Num (float_of_int checks.failed));
            ("metrics", metrics_json ms) ]))
