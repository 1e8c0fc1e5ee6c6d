(* Host speed, measured next to the work it corrects.

   The benchmark runs on small shared hosts whose speed, for this process,
   drifts with other tenants' load: a fixed piece of work can take a third
   longer for seconds to minutes at a time. Wall-clock readings taken
   minutes apart then differ by more than any regression worth catching.
   So between timed parts the benchmark runs a fixed kernel, which calls
   nothing of the program under test, allocates nothing and does the same
   work on every run and seed, and records how long it took. A timed part
   is reported in reference seconds: its wall-clock divided by the host's
   slowdown at that moment, the kernel's median time around the part over
   [reference]. A change to the program moves reference seconds exactly as
   it moves wall-clock; a change in the host's speed moves both the part
   and the kernel, and cancels. *)

(* The kernel's median seconds on the 2-vCPU shared VM the benchmark was
   defined on, so reference seconds read as that host's typical seconds. *)
let reference = 0.0080

(* The kernel: eight copies of a 1 MiB integer array (streaming through
   the caches, as the program's traces and matrices are), a heap sort of
   8192 integers (branchy integer work, as its hash tables and trees are),
   and an integer loop with four independent accumulators (high
   instruction-level parallelism), on arrays built once from a fixed
   generator.

   The mix was chosen by timing candidates alternately with the
   train-paper training, apply and serve parts, then checked on sets of
   ten runs: pointer chases through 1 and 4 MiB and a float recurrence
   drifted less than the parts (they are latency-bound), the integer loop
   alone about twice as much, the copy and the sort about as much as
   training but less than applying and serving. With the integer loop at
   a fifth of the kernel's time, training and applying drift within a
   tenth of the kernel (in log terms, over a set of runs); [observe]
   requests still drift about 1.3 times as much, and tail latencies a
   little less than the kernel. *)
let copy_len = 131_072
let sort_len = 8192
let ilp_len = 32_768
let ilp_passes = 20

let lcg = ref 0x2545F491

let next () =
  lcg := (!lcg * 1103515245 + 12345) land 0x3FFFFFFF;
  !lcg

let copy_src = Array.init copy_len (fun _ -> next ())
let copy_dst = Array.make copy_len 0
let sort_src = Array.init sort_len (fun _ -> next ())
let sort_buf = Array.make sort_len 0
let ilp_src = Array.init ilp_len (fun _ -> next ())

let kernel () =
  for _ = 1 to 8 do
    Array.blit copy_src 0 copy_dst 0 copy_len
  done;
  Array.blit sort_src 0 sort_buf 0 sort_len;
  Array.sort Int.compare sort_buf;
  let a = ref 0 and b = ref 0 and c = ref 0 and d = ref 0 in
  for _ = 1 to ilp_passes do
    for i = 0 to ilp_len - 1 do
      let x = Array.unsafe_get ilp_src i in
      a := !a + (x lxor 5);
      b := !b + (x lsl 1);
      c := !c lxor (x + 3);
      d := !d + (x land 255)
    done
  done;
  copy_dst.(0) + sort_buf.(0) + !a + !b + !c + !d

(* ---------- the sample timeline ---------- *)

(* (end time, kernel seconds), newest first. *)
let samples : (float * float) list ref = ref []

(* The traced run turns sampling off: its per-layer times are wall-clock,
   and a kernel sample would be time outside every layer's span. *)
let enabled = ref true

let sample () =
  if !enabled then begin
    let t0 = Measure.now () in
    ignore (Sys.opaque_identity (kernel ()));
    let t1 = Measure.now () in
    samples := (t1, t1 -. t0) :: !samples
  end

(* Sample unless one was taken in the last [fresh] seconds. *)
let fresh = 0.05

let sample_if_stale () =
  match !samples with
  | (t, _) :: _ when Measure.now () -. t < fresh -> ()
  | _ -> sample ()

(* Samples this close to an interval count towards its slowdown; with
   fewer than [min_near] of them, the [min_near] nearest count instead. *)
let window = 0.5
let min_near = 3

(* The host's slowdown over [t0, t1] (1 = the reference host's typical
   speed, 1.2 = a fifth slower): the median kernel time of the samples
   near the interval, over [reference]. *)
let slowdown ~t0 ~t1 =
  (* [samples] is newest first: skip the later ones, keep the near ones,
     stop at the first earlier one. *)
  let rec near acc = function
    | (t, _) :: rest when t > t1 +. window -> near acc rest
    | ((t, _) as s) :: rest when t >= t0 -. window -> near (s :: acc) rest
    | _ -> acc
  in
  let near =
    match near [] !samples with
    | near when List.length near >= min_near -> near
    | _ ->
        let distance (t, _) = if t < t0 then t0 -. t else if t > t1 then t -. t1 else 0. in
        List.filteri
          (fun i _ -> i < min_near)
          (List.sort (fun a b -> Float.compare (distance a) (distance b)) !samples)
  in
  if near = [] then 1. else Measure.median (List.map snd near) /. reference

(* [f ()], its wall-clock seconds and its reference seconds, with a
   kernel sample just before and just after it. *)
let timed f =
  sample_if_stale ();
  let t0 = Measure.now () in
  let r = f () in
  let t1 = Measure.now () in
  sample ();
  (r, t1 -. t0, (t1 -. t0) /. slowdown ~t0 ~t1)

(* The detail record's account of the samples: how many, and the median
   slowdown over the run. *)
let summary () =
  let all = List.map snd !samples in
  ( List.length all,
    if all = [] then nan else Measure.median all /. reference )
