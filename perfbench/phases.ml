(* Steps shared by the workloads: the in-process serve phase, the checks on
   served responses, and the training workloads' repetitions, metrics and
   traced-run accounting. *)

module Json = Psm_serve.Json

type serve_phase = {
  responses : string array;
  stats : Psm_serve.Engine.stats;
  filter_ms : float list;
  sim_ms : float list;
  cycles : int;  (** session-cycles answered *)
  seconds : float;
}

(* [schedule] through a fresh in-process engine, timing every request,
   with the daemon's job count. Every request's latency is scaled by the
   host's slowdown at the time (see [Calib]), sampled every [calib_every]
   seconds between requests; the phase's time is the sum of its requests'
   scaled latencies. *)
let calib_every = 0.05

let serve opts ~models plan schedule =
  let frames = Serving.frames plan schedule in
  Measure.quiesce ();
  Common.with_jobs (Common.serve_jobs opts) @@ fun () ->
  let timed = ref [] and last = ref neg_infinity in
  let on_request kind s =
    let now = Measure.now () in
    timed := (now -. s, now, kind) :: !timed;
    if now -. !last >= calib_every then begin
      Calib.sample ();
      last := now
    end
  in
  Calib.sample ();
  let responses, stats = Serving.run_in_process ~on_request ~models frames in
  Calib.sample ();
  let filter = ref [] and sim = ref [] and cycles = ref 0 and seconds = ref 0. in
  List.iter
    (fun (t0, t1, kind) ->
      let s = (t1 -. t0) /. Calib.slowdown ~t0 ~t1 in
      (match kind with
      | Serving.Observe -> filter := (s *. 1e3) :: !filter
      | Serving.Upload -> sim := (s *. 1e3) :: !sim
      | Serving.Chunk | Serving.Checkpoint -> ());
      cycles := !cycles + Serving.cycles_of_kind kind;
      seconds := !seconds +. s)
    (List.rev !timed);
  { responses; stats; filter_ms = !filter; sim_ms = !sim; cycles = !cycles; seconds = !seconds }

let count_errors responses =
  Array.fold_left (fun n r -> if Serving.response_ok r then n else n + 1) 0 responses

let check_all_ok name responses =
  Measure.check_many (name ^ ": ok responses") ~n:(Array.length responses)
    ~bad:(count_errors responses)

(* Session [i]'s frames after its open, and the (power, state) estimates
   it was served, in order. *)
let session_estimates (schedule : (int * int) array) responses i =
  let frames = ref 0 and served = ref [] in
  Array.iteri
    (fun j (s, k) ->
      if s = i && k >= 0 then begin
        incr frames;
        served := List.rev_append (Serving.estimates responses.(j)) !served
      end)
    schedule;
  (!frames, List.rev !served)

let same_estimates a b =
  List.length a = List.length b
  && List.for_all2 (fun (p, s) (q, t) -> s = t && Float.equal p q) a b

(* Served estimates of the sampled sessions against offline inference. *)
let check_offline name plan ~models ~schedule ~responses sample =
  List.iter
    (fun i ->
      let frames, served = session_estimates schedule responses i in
      let expected = Serving.offline_expected plan ~models i ~frames in
      Measure.check
        (Printf.sprintf "%s: session %s served = offline" name
           plan.Serving.sessions.(i).Serving.id)
        (served <> [] && same_estimates served expected))
    sample

(* The replayed responses (a prefix of the schedule, or all of it) agree
   with the served ones, per session. *)
let check_same_responses name plan ~schedule ~replayed ~served =
  let bad = Array.make (Array.length plan.Serving.sessions) false in
  Array.iteri
    (fun j r ->
      if not (Serving.same_response ~replayed:r ~served:served.(j)) then
        bad.(fst schedule.(j)) <- true)
    replayed;
  Array.iteri
    (fun i (s : Serving.session) ->
      Measure.check (Printf.sprintf "%s: session %s replayed = served" name s.Serving.id)
        (not bad.(i)))
    plan.Serving.sessions

(* The first sessions of the plan, which alternate filter and sim. *)
let sample plan n = List.init (min n (Array.length plan.Serving.sessions)) Fun.id

(* ---------- repetitions of a training workload ---------- *)

(* What one repetition leaves behind: its timings and the small results
   the checks and metrics need, never the traces (so the peak heap does
   not grow with the number of repetitions). *)
type rep = {
  train : (int * float) list;  (** per model trained: cycles, seconds *)
  apply : (int * float) list;  (** per held-out trace applied *)
  models : string list;  (** [Persist.save] bytes, per model *)
  errors : int;  (** Error-severity findings over all models *)
  props : int;
  raw_states : int;
  final_states : int;
  mre_pct : float;  (** mean over the held-out traces *)
  wrong_instants : int;
  resync_events : int;
  serve : serve_phase;
}

(* Mean MRE (%), wrong instants and resync events over timed applies. *)
let accuracy (applied : (Pipeline.applied * float) list) =
  let applied = List.map fst applied in
  let sum f = List.fold_left (fun acc a -> acc + f a) 0 applied in
  ( 100.
    *. List.fold_left (fun acc a -> acc +. a.Pipeline.report.Psm_hmm.Accuracy.mre) 0. applied
    /. float_of_int (List.length applied),
    sum (fun a -> a.Pipeline.result.Psm_hmm.Multi_sim.wrong_instants),
    sum (fun a -> a.Pipeline.result.Psm_hmm.Multi_sim.resync_events) )

let apply_parts applied = List.map (fun (a, s) -> (a.Pipeline.cycles, s)) applied

let total parts = List.fold_left (fun (c, s) (c', s') -> (c + c', s +. s')) (0, 0.) parts

(* Repetitions until [seconds] have passed and both serve modes have
   latency samples for three p99 blocks. The first repetition is kept
   whole; every later one is checked against it (identical models and
   responses) and keeps only its timings. *)
let repeat name ~seconds f =
  let first = ref None and filter = ref 0 and sim = ref 0 in
  Common.repeat_timed ~seconds
    ~enough:(fun () ->
      let enough = 3 * Common.min_latency_samples in
      !filter >= enough && !sim >= enough)
    (fun _ ->
      let r = f () in
      filter := !filter + List.length r.serve.filter_ms;
      sim := !sim + List.length r.serve.sim_ms;
      match !first with
      | None ->
          first := Some r;
          r
      | Some first ->
          Measure.check (name ^ ": repetitions persist identical models") (r.models = first.models);
          Measure.check (name ^ ": repetitions serve identical responses")
            (r.serve.responses = first.serve.responses);
          { r with serve = { r.serve with responses = [||] } })

let end_to_end ~setups ~peak reps =
  let first = List.hd reps in
  let latencies f = Common.latency (Array.of_list (List.concat_map (fun r -> List.rev (f r)) reps)) in
  { Common.setup_s = Measure.median setups;
    train_cycles_per_s = Common.parts_rate (List.map (fun r -> r.train) reps);
    apply_cycles_per_s = Common.parts_rate (List.map (fun r -> r.apply) reps);
    mre_pct = first.mre_pct;
    peak_heap_mb = Measure.words_to_mib peak;
    serve_cycles_per_s =
      Measure.median
        (List.map (fun r -> float_of_int r.serve.cycles /. r.serve.seconds) reps);
    filter = latencies (fun r -> r.serve.filter_ms);
    sim = latencies (fun r -> r.serve.sim_ms) }

let num n = Json.Num (float_of_int n)

let shape r =
  [ ("train_cycles", num (fst (total r.train)));
    ("heldout_cycles", num (fst (total r.apply)));
    ("props", num r.props);
    ("raw_states", num r.raw_states);
    ("final_states", num r.final_states);
    ("frames", num (Array.length r.serve.responses)) ]

let detail ~setups (e : Common.end_to_end) reps =
  let first = List.hd reps in
  let floats f = Json.List (List.map (fun r -> Json.Num (f r)) reps) in
  [ ("shape", Json.Obj (shape first));
    ("setup_s", Json.List (List.map (fun s -> Json.Num s) setups));
    ("reps", num (List.length reps));
    ("train_s", floats (fun r -> snd (total r.train)));
    ("apply_s", floats (fun r -> snd (total r.apply)));
    ("serve_s", floats (fun r -> r.serve.seconds));
    ( "wsp_pct",
      Json.Num
        (100. *. float_of_int first.wrong_instants /. float_of_int (fst (total first.apply))) );
    ("resync_events", num first.resync_events);
    ("filter_latency", Common.latency_json e.Common.filter);
    ("sim_latency", Common.latency_json e.Common.sim) ]

(* Per-layer counts of a traced repetition; [extra] entries come first and
   take precedence. *)
let traced_counts ?(extra = []) r =
  let f name v = (name, float_of_int v) in
  extra
  @ Pipeline.trace_counts ()
  @ [ f "mining.props" r.props;
      f "core.raw_states" r.raw_states;
      f "core.final_states" r.final_states;
      f "analysis.errors" r.errors;
      f "hmm.wrong_instants" r.wrong_instants;
      f "hmm.resync_events" r.resync_events;
      f "flow.model_bytes" (List.fold_left (fun acc m -> acc + String.length m) 0 r.models);
      f "serve.frames" (Array.length r.serve.responses);
      f "serve.sweeps" r.serve.stats.Psm_serve.Engine.sweeps;
      f "serve.cycles_served" r.serve.stats.Psm_serve.Engine.cycles_served;
      f "serve.errors" (count_errors r.serve.responses) ]

(* The traced run's detail: shape, per-layer accounting, pass timings. *)
let traced_detail (t : Common.traced) r =
  let lo, hi = t.Common.window in
  [ ("shape", Json.Obj (shape r));
    ("layers", Common.layer_table t.Common.spans);
    ("untraced_s", Json.List (List.map (fun s -> Json.Num s) t.Common.untraced_s));
    ("traced_common_s", Json.Num t.Common.common_s);
    ("traced_train_s", Json.Num (snd (total r.train)));
    ("traced_pass_s", Json.Num (hi -. lo)) ]

(* Record spans around [f]; the window is [f]'s start and end. *)
let with_tracing f =
  Pipeline.reset_ingested ();
  let lo = Measure.now () in
  Span.start_recording ();
  let v = f () in
  let spans = Span.stop_recording () in
  (v, spans, (lo, Measure.now ()))
