(* What every workload shares: its options, the host fingerprint, the
   end-to-end metric set, the per-layer metrics derived from a traced
   pass, and the detail record written next to the result line. *)

module Json = Psm_serve.Json

type options = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  nproc : int;
  work : string;  (** scratch directory inside the checkout *)
}

let layers = [ "trace"; "mining"; "core"; "analysis"; "hmm"; "flow"; "serve" ]

(* Set-up runs this many times per run; [setup_s] is the median. *)
let setup_repeats = 3

let fingerprint opts =
  [ ("nproc", Json.Num (float_of_int opts.nproc));
    ("recommended_domain_count", Json.Num (float_of_int (Domain.recommended_domain_count ())));
    ("psm_par_jobs", Json.Num (float_of_int (Psm_par.effective_jobs ())));
    ("ocaml_version", Json.Str Sys.ocaml_version) ]

(* Set-up, [setup_repeats] times; returns the last set-up's value and
   every set-up's time in reference seconds (see [Calib]). [teardown]
   releases all but the last. *)
let repeat_setup ?(teardown = ignore) f =
  let rec go i acc =
    let v, _, s = Calib.timed f in
    if i + 1 = setup_repeats then (v, List.rev (s :: acc))
    else begin
      teardown v;
      go (i + 1) (s :: acc)
    end
  in
  go 0 []

(* Every phase but serving runs with one Psm_par job. A second domain makes
   every stop-the-world collection wait for the other CPU, which on a small
   shared host is often busy with another tenant's work: with the host's
   two jobs, training throughput swung by a third across seeds while the
   single-domain apply path stayed within a few percent. *)
let jobs = 1

(* [f] with the Psm_par pool resized to [n] jobs, restored afterwards. *)
let with_jobs n f =
  let before = Psm_par.default_jobs () in
  Psm_par.set_jobs n;
  Fun.protect ~finally:(fun () -> Psm_par.set_jobs before) f

(* The daemon's job count, which every serve phase uses: with the
   single-threaded client, [nproc] threads in all. *)
let serve_jobs opts = max 1 (opts.nproc - 1)

(* [f x] for every [x], each timed on its own: one (result, reference
   seconds) per part (a model trained, a trace applied). *)
let timed_parts f xs =
  List.map
    (fun x ->
      let r, _, s = Calib.timed (fun () -> f x) in
      (r, s))
    xs

(* Throughput over repetitions that each timed the same parts: the parts'
   cycles over the sum of each part's median seconds. Per-part medians
   keep a slow stretch of one repetition from moving the result. *)
let parts_rate (reps : (int * float) list list) =
  let first = List.hd reps in
  let cycles = List.fold_left (fun acc (c, _) -> acc + c) 0 first in
  let seconds =
    List.mapi (fun i _ -> Measure.median (List.map (fun r -> snd (List.nth r i)) reps)) first
  in
  float_of_int cycles /. List.fold_left ( +. ) 0. seconds

(* [untraced] timed before and after [traced ()]: the traced run's
   overhead is measured against both, so warm-up favours neither side.
   Returns the first untraced result, the traced result and both
   untraced wall-clocks. *)
let bracket ~untraced ~traced =
  let u, s1 = Measure.timed untraced in
  let t = traced () in
  let _, s2 = Measure.timed untraced in
  (u, t, [ s1; s2 ])

(* Repetitions of [f] until [seconds] have passed and [enough] holds, at
   least [min_reps] of them. *)
let repeat_timed ~seconds ?(min_reps = 5) ?(enough = fun () -> true) f =
  let t0 = Measure.now () in
  let rec go i acc =
    if i >= min_reps && Measure.now () -. t0 >= seconds && enough () then List.rev acc
    else go (i + 1) (f i :: acc)
  in
  go 0 []

(* ---------- latency summary ---------- *)

(* Latency samples are cut, in the order they were taken, into blocks of
   at least [min_latency_samples] (so at least ten samples lie beyond each
   block's p99). p50 is over all samples; p99 is the median of the
   blocks' p99s, so a burst of interference from outside the benchmark
   moves one block, not the result. *)
let min_latency_samples = 1100

type latency = {
  p50 : float;
  p90 : float;
  p99 : float;
  samples : int;
  blocks : int;
}

let latency (ms : float array) =
  let n = Array.length ms in
  let blocks = max 1 (n / min_latency_samples) in
  let block q =
    Measure.median
      (List.init blocks (fun b ->
           let lo = b * n / blocks and hi = (b + 1) * n / blocks in
           let a = Array.sub ms lo (hi - lo) in
           Array.sort Float.compare a;
           Measure.percentile a q))
  in
  let all = Array.copy ms in
  Array.sort Float.compare all;
  { p50 = Measure.percentile all 0.50; p90 = block 0.90; p99 = block 0.99; samples = n; blocks }

let latency_json l =
  Json.Obj
    [ ("p50_ms", Json.Num l.p50);
      ("p90_ms", Json.Num l.p90);
      ("p99_ms", Json.Num l.p99);
      ("samples", Json.Num (float_of_int l.samples));
      ("p99_blocks", Json.Num (float_of_int l.blocks)) ]

(* ---------- end-to-end metrics ---------- *)

type end_to_end = {
  setup_s : float;
  train_cycles_per_s : float;
  apply_cycles_per_s : float;
  mre_pct : float;
  peak_heap_mb : float;
  serve_cycles_per_s : float;
  filter : latency;
  sim : latency;
}

let end_to_end_metrics e =
  Measure.
    [ metric "setup_s" "s" e.setup_s;
      metric "train_cycles_per_s" "cycles/s" e.train_cycles_per_s;
      metric "apply_cycles_per_s" "cycles/s" e.apply_cycles_per_s;
      metric "mre_pct" "%" e.mre_pct;
      metric "peak_heap_mb" "MiB" e.peak_heap_mb;
      metric "serve_cycles_per_s" "cycles/s" e.serve_cycles_per_s;
      metric "serve_filter_p50_ms" "ms" e.filter.p50;
      metric "serve_filter_p99_ms" "ms" e.filter.p99;
      metric "serve_sim_p50_ms" "ms" e.sim.p50;
      metric "serve_sim_p99_ms" "ms" e.sim.p99 ]

(* ---------- per-layer metrics ---------- *)

(* Counts the workload measured while tracing (cycles, states, bytes, ...),
   keyed by the per-layer metric name they fill. *)
type counts = (string * float) list

let rule_names () =
  List.map (fun (r : Psm_analysis.Rule.t) -> r.Psm_analysis.Rule.name)
    (Psm_analysis.Analyzer.rules ())

type traced = {
  spans : Span.t list;
  window : float * float;  (** start and end of the traced pass *)
  common_s : float;  (** the part of the traced pass that repeats... *)
  untraced_s : float list;  (** ...this untraced work, timed before and after *)
  counts : counts;
}

let per_layer_metrics t =
  let names = Span.by_name t.spans and by_layer = Span.by_layer t.spans in
  let total name = (Span.find names name).Span.total_s in
  let count name = Option.value ~default:0. (List.assoc_opt name t.counts) in
  let s name = Measure.metric (name ^ "_s") "s" (total name) in
  let c ?(unit_ = "count") name = Measure.metric name unit_ (count name) in
  let alloc layer =
    Measure.metric (layer ^ ".alloc_mw") "Mwords"
      ((Span.find by_layer layer).Span.self_alloc_words /. 1e6)
  in
  let io_s = total "trace.vcd_parse" +. total "trace.vcd_stream" in
  let lo, hi = t.window in
  let cycles_served = count "serve.cycles_served" and sweeps = count "serve.sweeps" in
  [ s "trace.vcd_parse";
    s "trace.vcd_stream";
    Measure.metric "trace.vcd_mib_per_s" "MiB/s"
      (if io_s > 0. then count "trace.bytes" /. 1048576. /. io_s else 0.);
    c ~unit_:"cycles" "trace.cycles";
    c ~unit_:"runs/cycle" "trace.run_compression";
    s "mining.vocabulary";
    s "mining.classify";
    c "mining.props";
    alloc "mining";
    s "core.generate";
    s "core.simplify";
    s "core.join";
    s "core.optimize";
    c "core.raw_states";
    c "core.final_states";
    alloc "core";
    s "analysis.raw";
    s "analysis.final" ]
  @ List.map (fun r -> s ("analysis.rule." ^ r)) (rule_names ())
  @ [ c "analysis.errors";
      s "hmm.build";
      s "hmm.simulate";
      c "hmm.wrong_instants";
      c "hmm.resync_events";
      s "flow.persist_save";
      s "flow.persist_load";
      c ~unit_:"bytes" "flow.model_bytes";
      s "flow.stream_mine";
      s "flow.stream_train";
      c "flow.compactions";
      s "serve.parse";
      s "serve.encode";
      s "serve.submit";
      s "serve.vcd_chunk";
      s "serve.drain";
      s "serve.take";
      s "serve.checkpoint";
      c "serve.frames";
      c "serve.sweeps";
      Measure.metric "serve.sweep_width" "cycles/sweep"
        (if sweeps > 0. then cycles_served /. sweeps else 0.);
      c "serve.errors" ]
  @ List.map
      (fun layer ->
        Measure.metric (layer ^ ".self_s") "s" (Span.find by_layer layer).Span.self_s)
      layers
  @ [ Measure.metric "tracing.overhead_s" "s"
        (t.common_s
        -. (List.fold_left ( +. ) 0. t.untraced_s /. float_of_int (List.length t.untraced_s)));
      Measure.metric "tracing.coverage_pct" "%" (100. *. Span.coverage ~lo ~hi t.spans) ]

(* Per-layer accounting for the detail record: calls, total and self
   time, self-allocated words. *)
let layer_table spans =
  let by_layer = Span.by_layer spans in
  Json.Obj
    (List.map
       (fun layer ->
         let s = Span.find by_layer layer in
         ( layer,
           Json.Obj
             [ ("calls", Json.Num (float_of_int s.Span.calls));
               ("total_s", Json.Num s.Span.total_s);
               ("self_s", Json.Num s.Span.self_s);
               ("self_alloc_words", Json.Num s.Span.self_alloc_words) ] ))
       layers)

(* ---------- output ---------- *)

(* Print a readable summary and a [detail] JSON line, write the detail
   next to the spans in the scratch directory, and finish with the result
   line. *)
let finish opts ~metrics ~detail =
  let detail =
    Json.Obj
      ([ ("workload", Json.Str opts.workload);
         ("seed", Json.Num (float_of_int opts.seed));
         ("trace", Json.Bool opts.trace);
         ("seconds", Json.Num opts.seconds);
         ("host", Json.Obj (fingerprint opts));
         ( "calibration",
           let n, slowdown = Calib.summary () in
           Json.Obj
             [ ("samples", Json.Num (float_of_int n));
               ("reference_s", Json.Num Calib.reference);
               ("median_slowdown", Json.Num slowdown) ] ) ]
      @ detail)
  in
  List.iter
    (fun m -> Printf.printf "%-40s %16.6g %s\n" m.Measure.name m.Measure.value m.Measure.unit_)
    metrics;
  let line = Json.to_string (Json.Obj [ ("detail", detail) ]) in
  print_endline line;
  Inputs.write_file
    (Filename.concat opts.work
       (Printf.sprintf "result-seed%d-trace%d.json" opts.seed (Bool.to_int opts.trace)))
    (line ^ "\n");
  Measure.print_result metrics
