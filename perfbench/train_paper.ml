(* train-paper: the paper's Table II/III flow on its four IPs. Batch
   training from VCD files (where static analysis and combination carry
   the cost), persisting, the [psmgen apply] path on held-out long-TS
   captures, and in-process estimation requests against the fresh
   models. *)

module Flow = Psm_flow.Flow

let name = "train-paper"

(* Half the paper's short-TS lengths (RAM 17064, MultSum 6000, AES 8252,
   Camellia 39000 cycles): training still spends most of its time in
   static analysis of Camellia, and a run fits several repetitions. *)
let scale = 0.5
let parts = 4
let heldout_cycles = 16_384

(* The in-process serve phase: sessions, and frames per session per
   repetition (five repetitions give three p99 blocks per mode). *)
let filter_sessions = 8
let sim_sessions = 16
let rounds = 85

type ip = {
  spec : Inputs.ip_spec;
  files : string list;
  train_cycles : int;
  heldout : string;
  heldout_cycles : int;
  model_path : string;
}

type inputs = { ips : ip list; segments : (string * Serving.segments) list }

let setup (opts : Common.options) =
  let dir = opts.Common.work and seed = opts.Common.seed in
  let ips =
    List.map
      (fun (spec : Inputs.ip_spec) ->
        let files, train_cycles = Inputs.write_training_suite ~dir ~seed ~scale ~parts spec in
        let heldout, heldout_cycles = Inputs.write_heldout ~dir ~seed ~length:heldout_cycles spec in
        { spec; files; train_cycles; heldout; heldout_cycles;
          model_path = Filename.concat dir (spec.Inputs.name ^ ".psm") })
      Inputs.paper_ips
  in
  { ips;
    segments =
      List.map (fun ip -> (ip.spec.Inputs.name, Serving.segments_of_vcd ip.heldout)) ips }

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

(* One repetition of the timed part. [train] is [Flow.train_on_vcd_files]
   (end-to-end runs) or the layer-by-layer path (traced pass). Returns the
   summary, the serve plan and the loaded models (for offline checks), and
   the batch MultSum model (for the stream check). *)
let rep (opts : Common.options) inputs ~train =
  Measure.quiesce ();
  let timed_trained = Common.timed_parts (fun ip -> train ip.files) inputs.ips in
  let trained = List.map fst timed_trained in
  let models = List.map2 (fun ip t -> Pipeline.save_file ip.model_path t) inputs.ips trained in
  Measure.quiesce ();
  let applied =
    Common.timed_parts (fun ip -> Pipeline.apply ~model_path:ip.model_path ip.heldout) inputs.ips
  in
  (* Everything the summary needs from the trained models and the applied
     traces is read before serving, so the serve phase runs with them
     dead: its forced collection leaves the heap at the served models'
     size, not training's. *)
  let mre_pct, wrong_instants, resync_events = Phases.accuracy applied in
  let apply = Phases.apply_parts applied in
  let errors = sum (fun t -> Pipeline.error_findings t.Flow.analysis) trained in
  let props = sum (fun t -> Psm_mining.Prop_trace.Table.prop_count t.Flow.table) trained in
  let raw_states = sum (fun t -> Psm_core.Psm.state_count t.Flow.raw) trained in
  let final_states = sum (fun t -> Psm_core.Psm.state_count t.Flow.optimized) trained in
  let multsum =
    List.assoc "MultSum"
      (List.map2 (fun ip t -> (ip.spec.Inputs.name, t)) inputs.ips trained)
  in
  let train = List.map2 (fun ip (_, s) -> (ip.train_cycles, s)) inputs.ips timed_trained in
  let loaded =
    List.map (fun ip -> (ip.spec.Inputs.name, Pipeline.load_file ip.model_path)) inputs.ips
  in
  let plan =
    Serving.make_plan ~seed:opts.Common.seed ~models:loaded ~segments:inputs.segments
      ~filter:filter_sessions ~sim:sim_sessions
  in
  let serve = Phases.serve opts ~models:loaded plan (Serving.round_robin plan ~rounds) in
  let summary =
    { Phases.train;
      apply;
      models;
      errors;
      props;
      raw_states;
      final_states;
      mre_pct;
      wrong_instants;
      resync_events;
      serve }
  in
  (summary, (plan, loaded), multsum)

let batch files = fst (Flow.train_on_vcd_files ~period:1 files)
let layered files = Pipeline.train_layered (Pipeline.ingest files)

let multsum_files inputs =
  (List.find (fun ip -> ip.spec.Inputs.name = "MultSum") inputs.ips).files

(* Checks every run makes on its first repetition: no error findings,
   every request answered ok, served = offline on sampled sessions, and
   the streamed MultSum model = the batch one. *)
let check (r : Phases.rep) (plan, models) ~multsum ~streamed =
  Measure.check (name ^ ": no error findings") (r.Phases.errors = 0);
  Phases.check_all_ok name r.Phases.serve.Phases.responses;
  Phases.check_offline name plan ~models
    ~schedule:(Serving.round_robin plan ~rounds)
    ~responses:r.Phases.serve.Phases.responses (Phases.sample plan 8);
  Measure.check (name ^ ": streamed MultSum = batch")
    (Pipeline.stream_equals_batch multsum streamed)

let end_to_end (opts : Common.options) =
  let inputs, setups = Common.repeat_setup (fun () -> setup opts) in
  let first = ref None in
  let reps, peak =
    Measure.with_peak_live (fun () ->
        Phases.repeat name ~seconds:opts.Common.seconds (fun () ->
            let r, context, multsum = rep opts inputs ~train:batch in
            if !first = None then first := Some (context, multsum);
            r))
  in
  let context, multsum = Option.get !first in
  check (List.hd reps) context ~multsum
    ~streamed:
      (Psm_flow.Stream_train.train_stream ~period:1 ~provenance:`Counts (multsum_files inputs));
  let e = Phases.end_to_end ~setups ~peak reps in
  Common.finish opts ~metrics:(Common.end_to_end_metrics e) ~detail:(Phases.detail ~setups e reps)

let traced (opts : Common.options) =
  let inputs = setup opts in
  let (untraced, _, _), (((r, context, multsum), common_s, streamed), spans, window), untraced_s
      =
    Common.bracket
      ~untraced:(fun () -> rep opts inputs ~train:batch)
      ~traced:(fun () ->
        Phases.with_tracing (fun () ->
            let result, common_s = Measure.timed (fun () -> rep opts inputs ~train:layered) in
            let streamed = Pipeline.stream_layered (multsum_files inputs) in
            List.iter (fun ip -> List.iter Pipeline.stream_noop ip.files) inputs.ips;
            (result, common_s, streamed)))
  in
  Span.write_chrome (Filename.concat opts.Common.work "spans.json") spans;
  Measure.check (name ^ ": traced models = untraced models") (r.Phases.models = untraced.Phases.models);
  Measure.check (name ^ ": traced responses = untraced responses")
    (r.Phases.serve.Phases.responses = untraced.Phases.serve.Phases.responses);
  check r context ~multsum ~streamed;
  let t =
    { Common.spans;
      window;
      common_s;
      untraced_s;
      counts =
        Phases.traced_counts r
          ~extra:[ ("flow.compactions", float_of_int streamed.Psm_flow.Stream_train.compactions) ] }
  in
  Common.finish opts ~metrics:(Common.per_layer_metrics t) ~detail:(Phases.traced_detail t r)
