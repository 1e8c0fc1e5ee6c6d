(* train-dwell-stream: the long-trace path. A power-mode controller with
   long dwell (about 98% of samples repeat the previous one), 512k cycles
   over eight VCD files, trained by the constant-memory
   streaming trainer, where ingest and mining carry the cost and analysis
   costs almost nothing; then the apply path on a held-out dwell capture
   and in-process estimation requests against the streamed model. *)

module Stream_train = Psm_flow.Stream_train

let name = "train-dwell-stream"

let files = 8
let cycles_per_file = 65_536
let heldout_cycles = 65_536

let filter_sessions = 8
let sim_sessions = 16
let rounds = 85

type inputs = {
  paths : string list;
  heldout : string;
  model_path : string;
  segments : (string * Serving.segments) list;
}

let model_name = "Dwell"

let setup (opts : Common.options) =
  let dir = opts.Common.work and seed = opts.Common.seed in
  let paths =
    List.init files (fun i ->
        let path = Filename.concat dir (Printf.sprintf "dwell-%d.vcd" i) in
        Inputs.write_dwell ~seed ~tag:(Printf.sprintf "dwell/train/%d" i)
          ~cycles:cycles_per_file path;
        path)
  in
  let heldout = Filename.concat dir "dwell-heldout.vcd" in
  Inputs.write_dwell ~seed ~tag:"dwell/heldout" ~cycles:heldout_cycles heldout;
  { paths;
    heldout;
    model_path = Filename.concat dir "dwell.psm";
    segments = [ (model_name, Serving.segments_of_vcd heldout) ] }

(* One repetition: stream-train, persist, apply, serve. [train] is
   [Stream_train.train_stream] (end-to-end runs) or the pre-parsed
   push-trainer path (traced pass). *)
let rep (opts : Common.options) inputs ~train =
  Measure.quiesce ();
  let result, _, train_s = Calib.timed (fun () -> train inputs.paths) in
  let model = Pipeline.save_file inputs.model_path (Pipeline.trained_of_stream result) in
  Measure.quiesce ();
  let applied =
    Common.timed_parts (Pipeline.apply ~model_path:inputs.model_path) [ inputs.heldout ]
  in
  let loaded = [ (model_name, Pipeline.load_file inputs.model_path) ] in
  let plan =
    Serving.make_plan ~seed:opts.Common.seed ~models:loaded ~segments:inputs.segments
      ~filter:filter_sessions ~sim:sim_sessions
  in
  let serve = Phases.serve opts ~models:loaded plan (Serving.round_robin plan ~rounds) in
  let mre_pct, wrong_instants, resync_events = Phases.accuracy applied in
  ( { Phases.train = [ (result.Stream_train.cycles, train_s) ];
      apply = Phases.apply_parts applied;
      models = [ model ];
      errors = Pipeline.error_findings result.Stream_train.analysis;
      props = Psm_mining.Prop_trace.Table.prop_count result.Stream_train.table;
      raw_states = 0;
      final_states = Psm_core.Psm.state_count result.Stream_train.optimized;
      mre_pct;
      wrong_instants;
      resync_events;
      serve },
    (plan, loaded),
    result.Stream_train.compactions )

let streamed paths = Stream_train.train_stream ~period:1 ~provenance:`Counts paths

(* The bounded sample the streamed model is checked against batch
   training on: the first dwell file. *)
let sample inputs = [ List.hd inputs.paths ]

let check (r : Phases.rep) (plan, models) ~batch ~streamed =
  Measure.check (name ^ ": no error findings") (r.Phases.errors = 0);
  Phases.check_all_ok name r.Phases.serve.Phases.responses;
  Phases.check_offline name plan ~models
    ~schedule:(Serving.round_robin plan ~rounds)
    ~responses:r.Phases.serve.Phases.responses (Phases.sample plan 8);
  Measure.check (name ^ ": streamed sample = batch sample")
    (Pipeline.stream_equals_batch batch streamed)

let end_to_end (opts : Common.options) =
  let inputs, setups = Common.repeat_setup (fun () -> setup opts) in
  let context = ref None in
  let reps, peak =
    Measure.with_peak_live (fun () ->
        Phases.repeat name ~seconds:opts.Common.seconds (fun () ->
            let r, c, _ = rep opts inputs ~train:streamed in
            if !context = None then context := Some c;
            r))
  in
  check (List.hd reps) (Option.get !context)
    ~batch:(fst (Psm_flow.Flow.train_on_vcd_files ~period:1 (sample inputs)))
    ~streamed:(streamed (sample inputs));
  let e = Phases.end_to_end ~setups ~peak reps in
  Common.finish opts ~metrics:(Common.end_to_end_metrics e) ~detail:(Phases.detail ~setups e reps)

let traced (opts : Common.options) =
  let inputs = setup opts in
  let ( (untraced, _, _),
        (((r, context, compactions), common_s, batch, sample_streamed), spans, window),
        untraced_s ) =
    Common.bracket
      ~untraced:(fun () -> rep opts inputs ~train:streamed)
      ~traced:(fun () ->
        Phases.with_tracing (fun () ->
            let result, common_s =
              Measure.timed (fun () -> rep opts inputs ~train:Pipeline.stream_layered)
            in
            let batch = Pipeline.train_layered (Pipeline.ingest (sample inputs)) in
            let sample_streamed = Pipeline.stream_layered (sample inputs) in
            List.iter Pipeline.stream_noop inputs.paths;
            (result, common_s, batch, sample_streamed)))
  in
  Span.write_chrome (Filename.concat opts.Common.work "spans.json") spans;
  Measure.check (name ^ ": traced model = untraced model") (r.Phases.models = untraced.Phases.models);
  Measure.check (name ^ ": traced responses = untraced responses")
    (r.Phases.serve.Phases.responses = untraced.Phases.serve.Phases.responses);
  check r context ~batch ~streamed:sample_streamed;
  let t =
    { Common.spans;
      window;
      common_s;
      untraced_s;
      counts =
        Phases.traced_counts r
          ~extra:
            [ ("flow.compactions", float_of_int compactions);
              ("core.raw_states", float_of_int (Psm_core.Psm.state_count batch.Psm_flow.Flow.raw)) ] }
  in
  Common.finish opts ~metrics:(Common.per_layer_metrics t) ~detail:(Phases.traced_detail t r)
