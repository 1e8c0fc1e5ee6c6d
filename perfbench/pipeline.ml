(* The library calls every workload is built from, each wrapped in a span
   of the layer it enters.

   Two training paths produce the same model. The end-to-end runs call
   [Flow.train_on_vcd_files]. The traced run calls [train_layered], which
   makes the same public calls [Flow.train] makes, one layer at a time,
   so each gets its own span, and runs the analyzer rules one at a time
   (each alone, via [config.rules]) so each rule gets its own span. The
   models of both paths must be byte-identical under [Persist.save]. *)

module Flow = Psm_flow.Flow
module Persist = Psm_flow.Persist
module Stream_train = Psm_flow.Stream_train
module Functional_trace = Psm_trace.Functional_trace
module Power_trace = Psm_trace.Power_trace
module Vcd = Psm_trace.Vcd
module Miner = Psm_mining.Miner
module Prop_trace = Psm_mining.Prop_trace
module Psm = Psm_core.Psm
module Hmm = Psm_hmm.Hmm
module Multi_sim = Psm_hmm.Multi_sim
module Accuracy = Psm_hmm.Accuracy
module Analyzer = Psm_analysis.Analyzer
module Finding = Psm_analysis.Finding
module Rule = Psm_analysis.Rule

let span = Span.with_

(* ---------- ingest ---------- *)

type ingested = { path : string; trace : Functional_trace.t; power : Power_trace.t }

(* What the trace layer ingested since the last [reset_ingested]: bytes
   and cycles parsed or streamed, and the run count of the parsed traces
   (for their run compression). *)
let ingested_bytes = Atomic.make 0
let ingested_cycles = Atomic.make 0
let parsed_cycles = Atomic.make 0
let parsed_runs = Atomic.make 0

let reset_ingested () =
  List.iter (fun c -> Atomic.set c 0) [ ingested_bytes; ingested_cycles; parsed_cycles; parsed_runs ]

let trace_counts () =
  [ ("trace.bytes", float_of_int (Atomic.get ingested_bytes));
    ("trace.cycles", float_of_int (Atomic.get ingested_cycles));
    ( "trace.run_compression",
      float_of_int (Atomic.get parsed_runs) /. float_of_int (max 1 (Atomic.get parsed_cycles)) ) ]

let note_ingest (stats : Psm_trace.Reader.stats) =
  ignore (Atomic.fetch_and_add ingested_bytes stats.Psm_trace.Reader.bytes);
  ignore (Atomic.fetch_and_add ingested_cycles stats.Psm_trace.Reader.samples)

(* [Vcd.parse_file] per file, fanned out over the Psm_par pool exactly as
   [Flow.train_on_vcd_files] does; worker spans name their parent. *)
let ingest paths =
  let parent = Span.current () in
  Psm_par.parallel_map
    (fun path ->
      span ~parent ~layer:"trace" "trace.vcd_parse" (fun () ->
          let parsed = Vcd.parse_file ~period:1 path in
          let trace = parsed.Vcd.trace in
          note_ingest parsed.Vcd.stats;
          ignore (Atomic.fetch_and_add parsed_cycles (Functional_trace.length trace));
          ignore
            (Atomic.fetch_and_add parsed_runs
               (Psm_trace.Runs.count (Functional_trace.runs trace)));
          match parsed.Vcd.power with
          | Some power -> { path; trace; power }
          | None -> invalid_arg (path ^ ": no power variable")))
    paths

(* [Vcd.stream] with a sink that does nothing: pure ingest cost. *)
let stream_noop path =
  span ~layer:"trace" "trace.vcd_stream" (fun () ->
      In_channel.with_open_bin path (fun ic ->
          note_ingest
            (Vcd.stream (Psm_trace.Reader.of_channel ic)
               ~init:(fun _ -> ())
               ~sample:(fun ~time:_ _ ~power:_ -> ()))))

(* ---------- batch training, one layer at a time ---------- *)

(* [Analyzer.analyze] with every registered rule, run one rule at a time
   inside [name]'s span. Each rule run returns its findings sorted, and
   [Finding.sort] is stable, so concatenating in registry order and
   sorting again gives exactly the all-rules report. *)
let analyze_by_rule name ?hmm ~gammas ~powers psm =
  span ~layer:"analysis" name (fun () ->
      let config = Analyzer.default in
      let ctx =
        span ~layer:"analysis" "analysis.context" (fun () ->
            Rule.context ?hmm ~gammas ~powers ~epsilon:config.Analyzer.epsilon psm)
      in
      Analyzer.rules ()
      |> List.concat_map (fun (rule : Rule.t) ->
             span ~layer:"analysis" ("analysis.rule." ^ rule.Rule.name) (fun () ->
                 Analyzer.run
                   ~config:{ config with Analyzer.rules = Some [ rule.Rule.name ] }
                   ctx))
      |> Finding.sort)

(* The transition/emission frequencies [Flow.train] projects from the raw
   chains onto the combined machine. *)
let project_counts ~raw ~optimized ~gammas final =
  let counts = Hashtbl.create 64 in
  List.iter
    (fun (tr : Psm.transition) ->
      let key = (final tr.Psm.src, final tr.Psm.dst) in
      Hashtbl.replace counts key
        (1. +. Option.value ~default:0. (Hashtbl.find_opt counts key)))
    (Psm.transitions raw);
  let transition_counts =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [])
  in
  let emission_counts =
    List.concat_map
      (fun (s : Psm.state) ->
        let per_prop = Hashtbl.create 8 in
        List.iter
          (fun (iv : Psm_core.Power_attr.interval) ->
            Prop_trace.iter_prop_runs gammas.(iv.Psm_core.Power_attr.trace)
              ~start:iv.Psm_core.Power_attr.start ~stop:iv.Psm_core.Power_attr.stop
              (fun p ~start:_ ~len ->
                Hashtbl.replace per_prop p
                  (float_of_int len
                  +. Option.value ~default:0. (Hashtbl.find_opt per_prop p))))
          s.Psm.attr.Psm_core.Power_attr.intervals;
        Hashtbl.fold (fun p c acc -> ((s.Psm.id, p), c) :: acc) per_prop [])
      (Psm.states optimized)
    |> List.sort compare
  in
  (transition_counts, emission_counts)

let train_layered (ingested : ingested list) : Flow.trained =
  let config = Flow.default in
  let traces = List.map (fun i -> i.trace) ingested in
  let powers = List.map (fun i -> i.power) ingested in
  let (table, gammas), mine_s =
    Measure.timed (fun () ->
        let vocabulary =
          span ~layer:"mining" "mining.vocabulary" (fun () ->
              Miner.mine_vocabulary ~config:config.Flow.miner traces)
        in
        span ~layer:"mining" "mining.classify" (fun () ->
            let table = Prop_trace.Table.create vocabulary in
            (table, List.map (Prop_trace.of_functional table) traces)))
  in
  let raw, generate_s =
    Measure.timed (fun () ->
        span ~layer:"core" "core.generate" (fun () ->
            List.fold_left
              (fun (psm, idx) (gamma, delta) ->
                (Psm_core.Generator.generate psm ~trace:idx gamma delta, idx + 1))
              (Psm.empty table, 0)
              (List.combine gammas powers)
            |> fst))
  in
  let traces = Array.of_list traces
  and powers = Array.of_list powers
  and gammas = Array.of_list gammas in
  let (optimized, reports, hmm, transition_counts, emission_counts), combine_s =
    Measure.timed (fun () ->
        let simplified, simplify_map =
          span ~layer:"core" "core.simplify" (fun () ->
              Psm_core.Simplify.simplify_traced ~config:config.Flow.merge raw)
        in
        let joined, join_map =
          span ~layer:"core" "core.join" (fun () ->
              Psm_core.Join.join_traced ~config:config.Flow.merge simplified)
        in
        let optimized, reports =
          span ~layer:"core" "core.optimize" (fun () ->
              Psm_core.Optimize.optimize ~config:config.Flow.optimize ~traces ~powers
                joined)
        in
        let transition_counts, emission_counts =
          span ~layer:"flow" "flow.counts" (fun () ->
              project_counts ~raw ~optimized ~gammas (fun id ->
                  join_map (simplify_map id)))
        in
        let hmm =
          span ~layer:"hmm" "hmm.build" (fun () ->
              Hmm.build ~transition_counts ~emission_counts optimized)
        in
        (optimized, reports, hmm, transition_counts, emission_counts))
  in
  let analysis, analyze_s =
    Measure.timed (fun () ->
        ignore (analyze_by_rule "analysis.raw" ~gammas ~powers raw);
        analyze_by_rule "analysis.final" ~hmm ~gammas ~powers optimized)
  in
  { Flow.config; table; traces; powers; gammas; raw; optimized;
    optimize_reports = reports; hmm; transition_counts; emission_counts; analysis;
    timings = { Flow.mine_s; generate_s; combine_s; analyze_s } }

(* ---------- streaming training over pre-parsed samples ---------- *)

(* The two passes of [Stream_train.train_stream ~provenance:`Counts], with
   each file parsed up front ([trace] layer) and its samples pushed into
   the trainer ([flow] layer). One file is live at a time. *)
let stream_layered paths : Stream_train.result =
  let trainer = ref None in
  let pass name =
    List.iter
      (fun path ->
        let parsed = List.hd (ingest [ path ]) in
        span ~layer:"flow" name (fun () ->
            let t =
              match !trainer with
              | Some t -> t
              | None ->
                  let t =
                    Stream_train.Trainer.create ~provenance:`Counts
                      (Functional_trace.interface parsed.trace)
                  in
                  trainer := Some t;
                  t
            in
            Functional_trace.iter
              (fun time sample ->
                Stream_train.Trainer.push t sample
                  ~power:(Power_trace.get parsed.power time))
              parsed.trace;
            Stream_train.Trainer.end_trace t))
      paths
  in
  pass "flow.stream_mine";
  let t = Option.get !trainer in
  span ~layer:"flow" "flow.stream_mine" (fun () -> Stream_train.Trainer.finish_mining t);
  pass "flow.stream_train";
  span ~layer:"flow" "flow.stream_train" (fun () -> Stream_train.Trainer.finish t)

(* [Persist.save] takes a [Flow.trained]; it reads the table, the
   combined model and the two count lists, which a streamed result
   carries too. *)
let trained_of_stream (r : Stream_train.result) : Flow.trained =
  { Flow.config = r.Stream_train.config;
    table = r.Stream_train.table;
    traces = [||];
    powers = [||];
    gammas = [||];
    raw = r.Stream_train.optimized;
    optimized = r.Stream_train.optimized;
    optimize_reports = r.Stream_train.optimize_reports;
    hmm = r.Stream_train.hmm;
    transition_counts = r.Stream_train.transition_counts;
    emission_counts = r.Stream_train.emission_counts;
    analysis = r.Stream_train.analysis;
    timings = r.Stream_train.timings }

(* ---------- persistence and the apply path ---------- *)

(* [Persist.save] to a file; returns the bytes written. *)
let save_file path trained =
  span ~layer:"flow" "flow.persist_save" (fun () ->
      let text = Persist.save trained in
      Inputs.write_file path text;
      text)

let load_file path = span ~layer:"flow" "flow.persist_load" (fun () -> Persist.load_file path)

type applied = {
  cycles : int;
  report : Accuracy.report;
  result : Multi_sim.result;
}

(* What [psmgen apply] does with one held-out VCD: load the persisted
   model, parse the VCD, simulate, score against the embedded power. *)
let apply ~model_path vcd =
  let model = load_file model_path in
  let parsed = List.hd (ingest [ vcd ]) in
  let result =
    span ~layer:"hmm" "hmm.simulate" (fun () ->
        Multi_sim.simulate model.Persist.hmm parsed.trace)
  in
  let report =
    span ~layer:"hmm" "hmm.accuracy" (fun () ->
        Accuracy.of_result ~reference:parsed.power result)
  in
  { cycles = Functional_trace.length parsed.trace; report; result }

(* ---------- model checks ---------- *)

let error_findings findings = List.length (Finding.errors findings)

(* Streamed against batch: the same proposition, state and transition
   counts, and power-label-aware bisimilar. (With [`Counts] provenance
   the streamed states carry no intervals, so their canonical ids need not
   match the batch ones.) *)
let stream_equals_batch (batch : Flow.trained) (sr : Stream_train.result) =
  let bp = batch.Flow.optimized and sp = sr.Stream_train.optimized in
  Prop_trace.Table.prop_count batch.Flow.table
  = Prop_trace.Table.prop_count sr.Stream_train.table
  && Psm.state_count bp = Psm.state_count sp
  && Psm.transition_count bp = Psm.transition_count sp
  && List.length batch.Flow.transition_counts = List.length sr.Stream_train.transition_counts
  && (Psm_verify.Verify.equiv ~epsilon:1e-6 bp sp).Psm_verify.Verify.equivalent
