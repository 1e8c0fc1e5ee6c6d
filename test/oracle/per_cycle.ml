(* Per-cycle references for the run-length production paths.

   The paper defines mining, classification and Xu generation one
   instant at a time. Production works one run of identical samples at
   a time and must reproduce these definitions exactly: the same
   vocabulary, the same proposition ids, the same chains, the same
   floats. Each function here takes the textbook route:

   - mining: one [Miner.Incremental.observe] per sample;
   - classification: one [Table.classify_or_add] (training) or
     [Table.classify] (estimation) per sample;
   - generation: the {!Psm_core.Xu} automaton walked cycle by cycle;
   - emission counts: one bump per instant.

   [train] runs them through the same simplify/join/optimize/HMM/analyzer
   stages as [Flow.train], so its result is comparable field by field. *)

module Functional_trace = Psm_trace.Functional_trace
module Power_trace = Psm_trace.Power_trace
module Miner = Psm_mining.Miner
module Prop_trace = Psm_mining.Prop_trace
module Table = Prop_trace.Table
module Psm = Psm_core.Psm
module Power_attr = Psm_core.Power_attr
module Xu = Psm_core.Xu
module Hmm = Psm_hmm.Hmm
module Multi_sim = Psm_hmm.Multi_sim
module Analyzer = Psm_analysis.Analyzer
module Flow = Psm_flow.Flow

let miner ?(config = Miner.default) traces =
  match traces with
  | [] -> invalid_arg "Per_cycle.miner: no training traces"
  | first :: _ ->
      let t = Miner.Incremental.create ~config (Functional_trace.interface first) in
      List.iter
        (fun trace ->
          Functional_trace.iter (fun _ sample -> Miner.Incremental.observe t sample) trace;
          Miner.Incremental.end_trace t)
        traces;
      t

let candidate_stats ?config traces = Miner.Incremental.candidate_stats (miner ?config traces)
let mine_vocabulary ?config traces = Miner.Incremental.vocabulary (miner ?config traces)

let classify table trace =
  let ids = Array.make (Functional_trace.length trace) 0 in
  Functional_trace.iter (fun time sample -> ids.(time) <- Table.classify_or_add table sample) trace;
  Prop_trace.of_ids table ids

(* Generator.generate's chain, from the per-cycle Xu walk and its
   trailing-stop rule. *)
let generate psm ~trace gamma delta =
  let xu = Xu.initialize gamma in
  let rec collect acc =
    match Xu.get_assertion xu with Some t -> collect (t :: acc) | None -> List.rev acc
  in
  let triplets = collect [] in
  let triplets =
    match (Xu.trailing_stop xu, List.rev triplets) with
    | None, _ -> triplets
    | Some stop, ((pat, start, last_stop) :: earlier as all) ->
        let tail_start = last_stop + 1 in
        let tail_prop = Prop_trace.prop_at gamma tail_start in
        if stop = tail_start then List.rev ((pat, start, stop) :: earlier)
        else List.rev ((Xu.Until (tail_prop, tail_prop), tail_start, stop) :: all)
    | Some stop, [] ->
        let p = Prop_trace.prop_at gamma 0 in
        [ (Xu.Until (p, p), 0, stop) ]
  in
  let add (psm, prev) (pattern, start, stop) =
    let attr = Power_attr.of_interval delta ~trace ~start ~stop in
    let psm, id = Psm.add_state psm (Psm_core.Generator.assertion_of_pattern pattern) attr in
    let psm =
      match prev with
      | None -> Psm.add_initial psm id
      | Some prev_id ->
          let entry = match pattern with Xu.Until (p, _) | Xu.Next (p, _) -> p in
          Psm.add_transition psm ~src:prev_id ~guard:entry ~dst:id
    in
    (psm, Some id)
  in
  fst (List.fold_left add (psm, None) triplets)

let emission_counts gammas optimized =
  List.concat_map
    (fun (s : Psm.state) ->
      let per_prop = Hashtbl.create 8 in
      List.iter
        (fun (iv : Power_attr.interval) ->
          let gamma = gammas.(iv.Power_attr.trace) in
          for t = iv.Power_attr.start to iv.Power_attr.stop do
            let p = Prop_trace.prop_at gamma t in
            Hashtbl.replace per_prop p
              (1. +. Option.value ~default:0. (Hashtbl.find_opt per_prop p))
          done)
        s.Psm.attr.Power_attr.intervals;
      Hashtbl.fold (fun p c acc -> ((s.Psm.id, p), c) :: acc) per_prop [])
    (Psm.states optimized)
  |> List.sort compare

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let train ?(config = Flow.default) ~traces ~powers () : Flow.trained =
  let (table, gammas), mine_s =
    timed (fun () ->
        let table = Table.create (mine_vocabulary ~config:config.Flow.miner traces) in
        (table, Array.of_list (List.map (classify table) traces)))
  in
  let powers = Array.of_list powers in
  let raw, generate_s =
    timed (fun () ->
        let psm = ref (Psm.empty table) in
        Array.iteri (fun i gamma -> psm := generate !psm ~trace:i gamma powers.(i)) gammas;
        !psm)
  in
  let traces = Array.of_list traces in
  let (optimized, optimize_reports, hmm, transition_counts, emission_counts), combine_s =
    timed (fun () ->
        let merge = config.Flow.merge in
        let simplified, simplify_map = Psm_core.Simplify.simplify_traced ~config:merge raw in
        let joined, join_map = Psm_core.Join.join_traced ~config:merge simplified in
        let optimized, reports =
          Psm_core.Optimize.optimize ~config:config.Flow.optimize ~traces ~powers joined
        in
        let final id = join_map (simplify_map id) in
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
        let emission_counts = emission_counts gammas optimized in
        ( optimized,
          reports,
          Hmm.build ~transition_counts ~emission_counts optimized,
          transition_counts,
          emission_counts ))
  in
  let analysis, analyze_s =
    timed (fun () ->
        let analysis = config.Flow.analysis in
        ignore (Analyzer.analyze ~config:analysis ~gammas ~powers raw : _ list);
        Analyzer.analyze ~config:analysis ~hmm ~gammas ~powers optimized)
  in
  { Flow.config;
    table;
    traces;
    powers;
    gammas;
    raw;
    optimized;
    optimize_reports;
    hmm;
    transition_counts;
    emission_counts;
    analysis;
    timings = { Flow.mine_s; generate_s; combine_s; analyze_s } }

(* Estimation: classify every sample and compute its input Hamming
   distance, then step the proposition-level entry points. *)
let observations table trace =
  let hd = Functional_trace.input_hamming_series trace in
  let obs = Array.make (Functional_trace.length trace) (None, 0.) in
  Functional_trace.iter (fun time sample -> obs.(time) <- (Table.classify table sample, hd.(time))) trace;
  obs

let simulate hmm trace =
  let stepper = Multi_sim.Stepper.create hmm in
  Array.map
    (fun (obs, hamming) -> Multi_sim.Stepper.step_classified stepper ~hamming obs)
    (observations (Psm.prop_table (Hmm.psm hmm)) trace)
