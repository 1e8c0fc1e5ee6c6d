(* Tests for Psm_hmm: the HMM λ = ⟨A, B, π⟩, filtering, the multi-PSM
   simulator with resynchronization, and the accuracy metrics. *)

module Bits = Psm_bits.Bits
module Signal = Psm_trace.Signal
module Interface = Psm_trace.Interface
module FT = Psm_trace.Functional_trace
module PT = Psm_trace.Power_trace
module Assertion = Psm_core.Assertion
module Psm = Psm_core.Psm
module Generator = Psm_core.Generator
module Hmm = Psm_hmm.Hmm
module Multi_sim = Psm_hmm.Multi_sim
module Accuracy = Psm_hmm.Accuracy
module Vocabulary = Psm_mining.Vocabulary
module Prop_trace = Psm_mining.Prop_trace
module Table = Prop_trace.Table

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let close = Alcotest.(check (float 1e-9))

(* Same synthetic world as test_core: one 4-bit signal whose value is the
   proposition. *)
let world values powers =
  let iface = Interface.create [ Signal.input "s" 4; Signal.output "o" 1 ] in
  let atoms = List.init 16 (fun v -> Psm_mining.Atomic.eq_const 0 (Bits.of_int ~width:4 v)) in
  let table = Table.create (Vocabulary.create iface atoms) in
  let samples =
    Array.of_list
      (List.map (fun v -> [| Bits.of_int ~width:4 v; Bits.of_bool false |]) values)
  in
  let trace = FT.of_samples iface samples in
  let gamma = Prop_trace.of_functional table trace in
  let delta = PT.of_array (Array.of_list powers) in
  (table, trace, gamma, delta)

let trace_of table values =
  let iface = Vocabulary.interface (Table.vocabulary table) in
  FT.of_samples iface
    (Array.of_list
       (List.map (fun v -> [| Bits.of_int ~width:4 v; Bits.of_bool false |]) values))

let train values powers =
  let table, trace, gamma, delta = world values powers in
  let psm = Generator.generate (Psm.empty table) ~trace:0 gamma delta in
  let simplified = Psm_core.Simplify.simplify psm in
  let joined = Psm_core.Join.join simplified in
  (table, trace, delta, joined)

(* ---------- HMM construction ---------- *)

let test_hmm_rows_stochastic () =
  let _, _, _, psm = train [ 0; 0; 0; 1; 1; 1; 0; 0; 0; 2; 2; 2 ] (List.init 12 (fun i -> float_of_int (i mod 3 + 1))) in
  let hmm = Hmm.build psm in
  let m = Hmm.state_count hmm in
  for i = 0 to m - 1 do
    let total = ref 0. in
    for j = 0 to m - 1 do
      let a = Hmm.a hmm i j in
      check_bool "non-negative" true (a >= 0.);
      total := !total +. a
    done;
    Alcotest.(check (float 1e-9)) "row sums to 1" 1. !total
  done

let test_hmm_pi_from_initials () =
  let table, _, _, _ = world [ 0; 1 ] [ 1.; 1. ] in
  let attr mu : Psm_core.Power_attr.t = { mu; sigma = 0.; n = 5; intervals = [] } in
  let psm = Psm.empty table in
  let psm, a = Psm.add_state psm (Assertion.Until (0, 1)) (attr 1.) in
  let psm, b = Psm.add_state psm (Assertion.Until (1, 0)) (attr 2.) in
  let psm = Psm.add_initial psm a in
  let psm = Psm.add_initial psm a in
  let psm = Psm.add_initial psm b in
  let hmm = Hmm.build psm in
  let pi = Hmm.pi hmm in
  close "pi[a]" (2. /. 3.) pi.(Hmm.row_of_state hmm a);
  close "pi[b]" (1. /. 3.) pi.(Hmm.row_of_state hmm b)

let test_hmm_b_entry () =
  (* A joined state with components entering on different propositions
     spreads its emission mass. *)
  let table, _, _, _ = world [ 0; 1; 2; 3 ] [ 1.; 1.; 1.; 1. ] in
  let attr : Psm_core.Power_attr.t = { mu = 1.; sigma = 0.; n = 5; intervals = [] } in
  let psm = Psm.empty table in
  let psm, a = Psm.add_state psm (Assertion.Until (0, 1)) attr in
  let psm, b = Psm.add_state psm (Assertion.Until (2, 3)) attr in
  let joined =
    fst
      (Psm.merge_clusters psm ~internal_edges:`Self_loop
         [ { Psm.members = [ a; b ];
             new_assertion = Assertion.alt [ Assertion.Until (0, 1); Assertion.Until (2, 3) ];
             new_attr = attr;
             new_components = [ (Assertion.Until (0, 1), attr); (Assertion.Until (2, 3), attr) ] } ])
  in
  let hmm = Hmm.build joined in
  let row = Hmm.row_of_state hmm (List.hd (Psm.states joined)).Psm.id in
  close "entry 0" 0.5 (Hmm.b_entry hmm row 0);
  close "entry 2" 0.5 (Hmm.b_entry hmm row 2);
  close "entry 1" 0. (Hmm.b_entry hmm row 1)

let test_hmm_predict_normalized () =
  let _, _, _, psm = train [ 0; 0; 1; 1; 0; 0; 2; 2; 0; 0 ] (List.init 10 (fun i -> float_of_int (1 + (i mod 4)))) in
  let hmm = Hmm.build psm in
  let belief = Hmm.initial_belief hmm in
  let belief' = Hmm.predict hmm belief in
  let total = Array.fold_left ( +. ) 0. belief' in
  close "normalized" 1. total

let test_hmm_ban_and_reset () =
  (* Powers far apart so nothing merges and inter-state edges survive. *)
  let values = [ 0; 0; 1; 1; 2; 2; 0; 0; 1; 1; 2; 2 ] in
  let _, _, _, psm = train values (List.map (fun v -> 10. ** float_of_int v) values) in
  let hmm = Hmm.build psm in
  (* Find a nonzero A entry, ban it, check zero, reset, check restored. *)
  let m = Hmm.state_count hmm in
  let found = ref None in
  for i = 0 to m - 1 do
    for j = 0 to m - 1 do
      if !found = None && Hmm.a hmm i j > 0. && i <> j then found := Some (i, j)
    done
  done;
  match !found with
  | None -> Alcotest.fail "no transitions at all"
  | Some (i, j) ->
      let original = Hmm.a hmm i j in
      Hmm.ban hmm ~src_row:i ~dst_row:j;
      close "banned" 0. (Hmm.a hmm i j);
      Hmm.reset_bans hmm;
      close "restored" original (Hmm.a hmm i j)

let test_hmm_transition_counts_weighting () =
  (* Frequency-weighted A: a destination entered 3x as often in training
     gets 3x the probability. *)
  let table, _, _, _ = world [ 0; 1; 2 ] [ 1.; 1.; 1. ] in
  let attr : Psm_core.Power_attr.t = { mu = 1.; sigma = 0.; n = 5; intervals = [] } in
  let psm = Psm.empty table in
  let psm, src = Psm.add_state psm (Assertion.Until (0, 1)) attr in
  let psm, d1 = Psm.add_state psm (Assertion.Until (1, 0)) attr in
  let psm, d2 = Psm.add_state psm (Assertion.Until (2, 0)) { attr with mu = 9. } in
  let psm = Psm.add_transition psm ~src ~guard:1 ~dst:d1 in
  let psm = Psm.add_transition psm ~src ~guard:2 ~dst:d2 in
  let hmm = Hmm.build ~transition_counts:[ ((src, d1), 3.); ((src, d2), 1.) ] psm in
  let r = Hmm.row_of_state hmm src in
  close "3:1 weighting" 0.75 (Hmm.a hmm r (Hmm.row_of_state hmm d1))

(* ---------- multi-PSM simulation ---------- *)

let test_multi_sim_replays_training () =
  let values = [ 0; 0; 0; 1; 1; 1; 0; 0; 0; 2; 2; 2; 0; 0; 0 ] in
  let powers = List.map (fun v -> float_of_int ((v * 4) + 1)) values in
  let _, trace, delta, psm = train values powers in
  let hmm = Hmm.build psm in
  let result = Multi_sim.simulate hmm trace in
  check_int "no wrong instants" 0 result.Multi_sim.wrong_instants;
  let report = Accuracy.of_result ~reference:delta result in
  Alcotest.(check bool) "tiny MRE" true (report.Accuracy.mre < 1e-9)

let test_multi_sim_cascade_states () =
  (* Force a Seq state by making three power-similar adjacent states, and
     check the cascade is tracked through. *)
  let values = [ 0; 0; 1; 1; 2; 2; 9; 9; 9; 0; 0; 1; 1; 2; 2; 9; 9; 9 ] in
  let powers =
    List.map (fun v -> if v = 9 then 50. else 5.) values
  in
  let _, trace, _, psm = train values powers in
  let hmm = Hmm.build psm in
  let result = Multi_sim.simulate hmm trace in
  check_int "no wrong instants" 0 result.Multi_sim.wrong_instants;
  (* Spot check: the low-power cascade instants estimate 5. *)
  close "cascade power" 5. result.Multi_sim.estimate.(2);
  close "high power" 50. result.Multi_sim.estimate.(7)

let test_multi_sim_resync_recovers () =
  (* Training alternates a/b; the test trace interposes an unknown
     proposition. With resync the machine must recover and keep
     estimating; the unknown instants are counted wrong. *)
  let values = [ 0; 0; 0; 1; 1; 1; 0; 0; 0; 1; 1; 1 ] in
  let powers = List.map (fun v -> if v = 0 then 2. else 8.) values in
  let table, _, _, psm = train values powers in
  let hmm = Hmm.build psm in
  let test_trace = trace_of table [ 0; 0; 0; 7; 7; 1; 1; 1; 0; 0; 1; 1 ] in
  let result = Multi_sim.simulate hmm test_trace in
  check_bool "some wrong instants" true (result.Multi_sim.wrong_instants >= 2);
  check_bool "recovers" true (result.Multi_sim.state_trace.(6) >= 0);
  check_bool "wsp fraction" true (result.Multi_sim.wsp < 0.5)

let test_multi_sim_resync_ablation () =
  (* Without resync, recovery requires the origin state itself to match;
     jumping elsewhere is forbidden, so more instants stay wrong. *)
  let values = [ 0; 0; 0; 1; 1; 1; 2; 2; 2; 0; 0; 0; 1; 1; 1; 2; 2; 2 ] in
  let powers = List.map (fun v -> float_of_int ((v * 3) + 1)) values in
  let table, _, _, psm = train values powers in
  let hmm = Hmm.build psm in
  (* Jump from inside the 0-run to the 2-run (never seen as a 0->2
     transition at that point), then behave normally. *)
  let test_trace = trace_of table [ 0; 0; 7; 2; 2; 2; 0; 0; 0; 1; 1; 1 ] in
  let with_resync = Multi_sim.simulate hmm test_trace in
  let without =
    Multi_sim.simulate
      ~config:{ Multi_sim.default with Multi_sim.resync_enabled = false }
      hmm test_trace
  in
  check_bool "resync at least as good" true
    (with_resync.Multi_sim.wrong_instants <= without.Multi_sim.wrong_instants)

let test_multi_sim_never_estimates_negative () =
  let values = [ 0; 0; 1; 1; 0; 0; 1; 1 ] in
  let powers = [ 1.; 1.; 5.; 5.; 1.; 1.; 5.; 5. ] in
  let table, _, _, psm = train values powers in
  let hmm = Hmm.build psm in
  let test_trace = trace_of table [ 0; 1; 0; 1; 7; 7; 0; 1 ] in
  let result = Multi_sim.simulate hmm test_trace in
  Array.iter (fun e -> check_bool "non-negative" true (e >= 0.)) result.Multi_sim.estimate

let test_stepper_incremental_matches_batch () =
  let values = [ 0; 0; 0; 1; 1; 1; 2; 2; 0; 0; 1; 1 ] in
  let powers = List.map (fun v -> float_of_int (v + 1)) values in
  let _, trace, _, psm = train values powers in
  let hmm = Hmm.build psm in
  let batch = Multi_sim.simulate hmm trace in
  let stepper = Multi_sim.Stepper.create hmm in
  let observer = Prop_trace.Observer.create (Psm.prop_table psm) in
  FT.iter
    (fun t sample ->
      let obs = Prop_trace.Observer.observe observer sample in
      let e, sid =
        Multi_sim.Stepper.step_classified stepper ~hamming:(Prop_trace.Observer.hamming observer) obs
      in
      close "same estimate" batch.Multi_sim.estimate.(t) e;
      check_int "same state" batch.Multi_sim.state_trace.(t) sid)
    trace

(* ---------- offline (Viterbi) decoding ---------- *)

let test_viterbi_matches_online_on_clean_replay () =
  let values = [ 0; 0; 0; 1; 1; 1; 0; 0; 0; 2; 2; 2; 0; 0; 0 ] in
  let powers = List.map (fun v -> float_of_int ((v * 4) + 1)) values in
  let _, trace, delta, psm = train values powers in
  let hmm = Hmm.build psm in
  let offline = Psm_hmm.Offline.evaluate hmm trace ~reference:delta in
  Alcotest.(check bool) "near exact" true (offline.Accuracy.mre < 1e-9)

let test_viterbi_known_lattice () =
  (* Two far-apart power levels with distinct observations: the decoded
     sequence must match the observation segmentation exactly. *)
  let values = [ 0; 0; 0; 3; 3; 3; 3; 0; 0 ] in
  let powers = List.map (fun v -> if v = 0 then 1. else 100.) values in
  let table, trace, _, psm = train values powers in
  ignore table;
  let hmm = Hmm.build psm in
  let decoded = Psm_hmm.Offline.decode hmm trace in
  let psm_of t = (Psm.state psm decoded.(t)).Psm.attr.Psm_core.Power_attr.mu in
  Alcotest.(check (float 1e-9)) "low state at 0" 1. (psm_of 0);
  Alcotest.(check (float 1e-9)) "high state at 4" 100. (psm_of 4);
  Alcotest.(check (float 1e-9)) "low again at 8" 1. (psm_of 8)

let test_viterbi_handles_unknown_observations () =
  let values = [ 0; 0; 0; 1; 1; 1 ] in
  let powers = [ 2.; 2.; 2.; 8.; 8.; 8. ] in
  let table, _, _, psm = train values powers in
  let hmm = Hmm.build psm in
  (* A test trace with an unseen proposition in the middle. *)
  let test_trace = trace_of table [ 0; 0; 7; 1; 1; 1 ] in
  let est = Psm_hmm.Offline.estimate hmm test_trace in
  Alcotest.(check int) "full length" 6 (Array.length est);
  Array.iter (fun e -> Alcotest.(check bool) "finite" true (Float.is_finite e)) est

(* ---------- forward filtering ---------- *)

let test_filtering_posteriors_normalized () =
  let values = [ 0; 0; 1; 1; 2; 2; 0; 0 ] in
  let powers = List.map (fun v -> float_of_int ((v * 5) + 1)) values in
  let _, trace, _, psm = train values powers in
  let hmm = Hmm.build psm in
  let f = Psm_hmm.Filtering.create hmm in
  let obs =
    Array.init (FT.length trace) (fun time ->
        Table.classify (Psm.prop_table psm) (FT.sample trace ~time))
  in
  let post = Psm_hmm.Filtering.posteriors f obs in
  Array.iter
    (fun belief ->
      let total = Array.fold_left ( +. ) 0. belief in
      Alcotest.(check (float 1e-9)) "normalized" 1. total)
    post

let test_filtering_map_matches_truth_on_clean_chain () =
  let values = [ 0; 0; 0; 3; 3; 3; 0; 0; 0 ] in
  let powers = List.map (fun v -> if v = 0 then 1. else 50.) values in
  let _, trace, _, psm = train values powers in
  let hmm = Hmm.build psm in
  let f = Psm_hmm.Filtering.create hmm in
  let est = Psm_hmm.Filtering.expected_power f trace in
  (* Posterior-weighted power lands close to the truth everywhere. *)
  List.iteri
    (fun t truth ->
      Alcotest.(check bool)
        (Printf.sprintf "instant %d" t)
        true
        (abs_float (est.(t) -. truth) /. truth < 0.25))
    powers

let test_filtering_likelihood_ranks_workloads () =
  (* A trace from the training distribution scores higher per instant
     than a shuffled alien trace. *)
  let values = [ 0; 0; 0; 1; 1; 1; 0; 0; 0; 1; 1; 1; 0; 0; 0; 1; 1; 1 ] in
  let powers = List.map (fun v -> float_of_int ((v * 5) + 1)) values in
  let table, trace, _, psm = train values powers in
  let hmm = Hmm.build psm in
  let f = Psm_hmm.Filtering.create hmm in
  let obs_of tr =
    Array.init (FT.length tr) (fun time ->
        Table.classify (Psm.prop_table psm) (FT.sample tr ~time))
  in
  let familiar = Psm_hmm.Filtering.log_likelihood f (obs_of trace) in
  let alien = trace_of table [ 1; 0; 1; 0; 1; 0; 1; 0; 1; 0; 1; 0; 1; 0; 1; 0; 1; 0 ] in
  let alien_ll = Psm_hmm.Filtering.log_likelihood f (obs_of alien) in
  Alcotest.(check bool) "familiar more likely" true (familiar > alien_ll)

(* ---------- accuracy ---------- *)

let test_accuracy_zero_error () =
  let reference = PT.of_array [| 1.; 2.; 3. |] in
  let r = Accuracy.of_estimate ~reference ~estimate:[| 1.; 2.; 3. |] ~wsp:0. in
  close "mre" 0. r.Accuracy.mre;
  close "rmse" 0. r.Accuracy.rmse;
  close "total" 0. r.Accuracy.total_energy_error

let test_accuracy_known_error () =
  let reference = PT.of_array [| 10.; 10. |] in
  let r = Accuracy.of_estimate ~reference ~estimate:[| 12.; 10. |] ~wsp:0.25 in
  close "mre" 0.1 r.Accuracy.mre;
  close "rmse" (sqrt 2.) r.Accuracy.rmse;
  close "total" 0.1 r.Accuracy.total_energy_error;
  close "wsp carried" 0.25 r.Accuracy.wsp

let test_accuracy_validates_lengths () =
  let reference = PT.of_array [| 1. |] in
  check_bool "length mismatch" true
    (try
       ignore (Accuracy.of_estimate ~reference ~estimate:[| 1.; 2. |] ~wsp:0.);
       false
     with Invalid_argument _ -> true)

(* ---------- production kernels vs the dense oracle ---------- *)

module Oracle = Psm_oracle

(* The production kernels are sparse, so a fully dense A is the shape
   they are least tuned for: every CSR row holds m entries. They must
   still return exactly the dense oracle's floats and paths. *)
let fill_dense hmm =
  let m = Hmm.state_count hmm in
  for i = 0 to m - 1 do
    let weights = Array.init m (fun j -> float_of_int (1 + (((i * 7) + (j * 3)) mod 5))) in
    let total = Array.fold_left ( +. ) 0. weights in
    Array.iteri (fun j w -> Hmm.unsafe_set_a hmm ~row:i ~col:j (w /. total)) weights
  done

(* ---------- the stepper's indexes and one-hot choice ---------- *)

(* What the stepper's precomputed indexes must hold: scans over the
   transition list and over the state assertions. *)
let scan_successors hmm ~row ~prop =
  Psm.transitions (Hmm.psm hmm)
  |> List.filter_map (fun (tr : Psm.transition) ->
         if Hmm.row_of_state hmm tr.Psm.src = row && tr.Psm.guard = prop then
           Some (Hmm.row_of_state hmm tr.Psm.dst)
         else None)
  |> List.sort_uniq Int.compare

let scan_entries hmm ~prop =
  let psm = Hmm.psm hmm in
  List.init (Hmm.state_count hmm) Fun.id
  |> List.filter (fun row ->
         Assertion.alternatives (Psm.state psm (Hmm.state_of_row hmm row)).Psm.assertion
         |> List.exists (fun alternative -> Assertion.entry_props alternative = [ prop ]))

(* Every (row, proposition) pair, plus one proposition past the table. *)
let indexes_match hmm =
  let stepper = Multi_sim.Stepper.create (Hmm.copy hmm) in
  let rows = List.init (Hmm.state_count hmm) Fun.id in
  List.init (Table.prop_count (Psm.prop_table (Hmm.psm hmm)) + 1) Fun.id
  |> List.for_all (fun prop ->
         Multi_sim.Stepper.entries stepper ~prop = scan_entries hmm ~prop
         && List.for_all
              (fun row ->
                Multi_sim.Stepper.successors stepper ~row ~prop = scan_successors hmm ~row ~prop)
              rows)

(* The stepper's one-hot shortcut against [Hmm.predict] of the one-hot
   belief, bit for bit, from every origin row of [hmm]'s current A
   (which [stepper] reads live). *)
let one_hot_matches stepper hmm =
  let m = Hmm.state_count hmm in
  List.init m Fun.id
  |> List.for_all (fun origin_row ->
         let belief = Array.make m 0. in
         belief.(origin_row) <- 1.;
         let predicted = Hmm.predict hmm belief in
         let shortcut = Multi_sim.Stepper.one_hot_prediction stepper ~origin_row in
         List.for_all
           (fun r ->
             Int64.equal (Int64.bits_of_float predicted.(r)) (Int64.bits_of_float (shortcut r)))
           (List.init m Fun.id))

(* [bans] (reduced modulo the row count) applied in order after the
   stepper is created, as its own resynchronization would. *)
let one_hot_matches_after_bans hmm bans =
  let hmm = Hmm.copy hmm in
  let stepper = Multi_sim.Stepper.create hmm in
  let m = Hmm.state_count hmm in
  List.iter (fun (src, dst) -> Hmm.ban hmm ~src_row:(src mod m) ~dst_row:(dst mod m)) bans;
  one_hot_matches stepper hmm

(* The bundled IP models (trained once, shared with the serve suite). *)
let ip_hmms () =
  List.map
    (fun name -> (Test_serve.model_of name).Psm_flow.Persist.hmm)
    [ "RAM"; "MultSum"; "AES"; "Camellia" ]

let test_dense_a_matches_oracle () =
  let values = [ 0; 0; 1; 1; 1; 2; 2; 3; 3; 3; 0; 0; 2; 2; 1; 1; 3; 3 ] in
  let _, trace, _, psm = train values (List.map (fun v -> float_of_int ((v * 2) + 1)) values) in
  let hmm = Hmm.build psm in
  fill_dense hmm;
  let m = Hmm.state_count hmm in
  check_int "A is fully dense" (m * m) (Psm_hmm.Sparse.nnz (Hmm.a_sparse hmm));
  let obs =
    Array.init (FT.length trace) (fun time ->
        if time mod 4 = 3 then None
        else Table.classify (Psm.prop_table psm) (FT.sample trace ~time))
  in
  let f = Psm_hmm.Filtering.create hmm in
  let oracle = Oracle.Forward.create hmm in
  check_bool "posteriors = dense oracle" true
    (Psm_hmm.Filtering.posteriors f obs = Oracle.Forward.posteriors oracle obs);
  check_bool "log likelihood = dense oracle" true
    (Psm_hmm.Filtering.log_likelihood f obs = Oracle.Forward.log_likelihood oracle obs);
  check_bool "viterbi path = dense oracle" true
    (Psm_hmm.Offline.viterbi hmm obs = Oracle.viterbi hmm obs);
  (* [Stepper.create] resets A to the trained matrix, so the dense fill
     goes in after creation. *)
  let copy = Hmm.copy hmm in
  let stepper = Multi_sim.Stepper.create copy in
  fill_dense copy;
  check_bool "one-hot choice = predict on dense A" true (one_hot_matches stepper copy)

let test_viterbi_adversarial_ties () =
  (* All-uniform rows make every predecessor score tie at every step:
     the sparse top-K selection must reproduce the dense scan's
     lowest-index winners exactly, path element by path element. *)
  let values = [ 0; 0; 1; 1; 2; 2; 3; 3; 0; 0; 1; 1; 2; 2; 3; 3 ] in
  let _, _, _, psm = train values (List.map (fun v -> float_of_int (v + 1)) values) in
  let hmm = Hmm.build psm in
  let m = Hmm.state_count hmm in
  for i = 0 to m - 1 do
    for j = 0 to m - 1 do
      Hmm.unsafe_set_a hmm ~row:i ~col:j (1. /. float_of_int m)
    done
  done;
  (* Uninformative observations keep the scores tied throughout. *)
  let obs = Array.make 200 None in
  check_bool "tied lattice: sparse = dense" true
    (Psm_hmm.Offline.viterbi hmm obs = Oracle.viterbi hmm obs);
  (* Same check on a sparse-with-ties lattice: uniform over a chain. *)
  Hmm.reset_bans hmm;
  let obs2 = Array.init 200 (fun t -> if t mod 3 = 0 then None else Some 0) in
  check_bool "chain with tied emissions: sparse = dense" true
    (Psm_hmm.Offline.viterbi hmm obs2 = Oracle.viterbi hmm obs2)

(* ---------- properties ---------- *)

let prop name arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:50 ~name arb f)

let arb_values = QCheck.(list_of_size Gen.(int_range 4 60) (int_bound 4))

let properties =
  [ prop "training replay stays mostly synchronized" arb_values (fun values ->
        QCheck.assume (List.length values >= 4);
        let powers = List.map (fun v -> float_of_int ((v * 2) + 1)) values in
        let _, trace, delta, psm = train values powers in
        let hmm = Hmm.build psm in
        let result = Multi_sim.simulate hmm trace in
        let report = Accuracy.of_result ~reference:delta result in
        (* Even on its own training trace the simulator can mispredict:
           join deliberately produces states with identical assertions,
           and a wrong non-deterministic choice only surfaces a few
           instants later — this is precisely the paper's WSP phenomenon.
           The guarantees that DO hold: the machine stays synchronized on
           at least half the instants (resynchronization works) and the
           estimate remains sane. *)
        result.Multi_sim.wsp <= 0.5 && Float.is_finite report.Accuracy.mre);
    prop "belief stays normalized through prediction" arb_values (fun values ->
        QCheck.assume (List.length values >= 2);
        let powers = List.map (fun v -> float_of_int (v + 1)) values in
        let _, _, _, psm = train values powers in
        let hmm = Hmm.build psm in
        let b = ref (Hmm.initial_belief hmm) in
        let ok = ref true in
        for _ = 1 to 10 do
          b := Hmm.predict hmm !b;
          let total = Array.fold_left ( +. ) 0. !b in
          if abs_float (total -. 1.) > 1e-6 then ok := false
        done;
        !ok);
    prop "wsp bounded" arb_values (fun values ->
        QCheck.assume (List.length values >= 4);
        let powers = List.map (fun v -> float_of_int (v + 1)) values in
        let table, _, _, psm = train values powers in
        let hmm = Hmm.build psm in
        (* Evaluate on a shuffled variant (same alphabet, new order). *)
        let shuffled = List.rev values in
        let result = Multi_sim.simulate hmm (trace_of table shuffled) in
        result.Multi_sim.wsp >= 0. && result.Multi_sim.wsp <= 1.);
    (* ---------- sparse vs dense kernel equivalence ---------- *)
    prop "sparse forward ≡ dense forward" arb_values (fun values ->
        QCheck.assume (List.length values >= 4);
        let powers = List.map (fun v -> float_of_int ((v * 3) + 1)) values in
        let _, trace, _, psm = train values powers in
        let hmm = Hmm.build psm in
        let obs =
          Array.init (FT.length trace) (fun time ->
              (* A few Nones exercise the uninformative-emission path. *)
              if time mod 5 = 4 then None
              else Table.classify (Psm.prop_table psm) (FT.sample trace ~time))
        in
        let dense = Oracle.Forward.create hmm in
        let sparse = Psm_hmm.Filtering.create hmm in
        Oracle.Forward.posteriors dense obs = Psm_hmm.Filtering.posteriors sparse obs
        && Oracle.Forward.log_likelihood dense obs
           = Psm_hmm.Filtering.log_likelihood sparse obs);
    prop "sparse viterbi ≡ dense viterbi" arb_values (fun values ->
        QCheck.assume (List.length values >= 4);
        let powers = List.map (fun v -> float_of_int ((v * 2) + 1)) values in
        let _, trace, _, psm = train values powers in
        let hmm = Hmm.build psm in
        let obs =
          Array.init (FT.length trace) (fun time ->
              if time mod 7 = 6 then None
              else Table.classify (Psm.prop_table psm) (FT.sample trace ~time))
        in
        Oracle.viterbi hmm obs = Psm_hmm.Offline.viterbi hmm obs);
    (* ---------- the stepper against its definitions ---------- *)
    prop "stepper indexes ≡ scans" arb_values (fun values ->
        QCheck.assume (List.length values >= 4);
        let powers = List.map (fun v -> float_of_int (v + 1)) values in
        let _, _, _, psm = train values powers in
        List.for_all indexes_match (Hmm.build psm :: ip_hmms ()));
    prop "one-hot choice ≡ Hmm.predict after bans"
      QCheck.(pair arb_values (small_list (pair small_nat small_nat)))
      (fun (values, bans) ->
        QCheck.assume (List.length values >= 4);
        let powers = List.map (fun v -> float_of_int (v + 1)) values in
        let _, _, _, psm = train values powers in
        List.for_all
          (fun hmm -> one_hot_matches_after_bans hmm bans)
          (Hmm.build psm :: ip_hmms ())) ]

let suite =
  ( "hmm",
    [ Alcotest.test_case "A rows stochastic" `Quick test_hmm_rows_stochastic;
      Alcotest.test_case "pi from initials" `Quick test_hmm_pi_from_initials;
      Alcotest.test_case "B entry emission" `Quick test_hmm_b_entry;
      Alcotest.test_case "predict normalized" `Quick test_hmm_predict_normalized;
      Alcotest.test_case "ban and reset" `Quick test_hmm_ban_and_reset;
      Alcotest.test_case "dense A matches oracle" `Quick test_dense_a_matches_oracle;
      Alcotest.test_case "viterbi adversarial ties" `Quick test_viterbi_adversarial_ties;
      Alcotest.test_case "transition count weighting" `Quick test_hmm_transition_counts_weighting;
      Alcotest.test_case "replay training" `Quick test_multi_sim_replays_training;
      Alcotest.test_case "cascade states" `Quick test_multi_sim_cascade_states;
      Alcotest.test_case "resync recovers" `Quick test_multi_sim_resync_recovers;
      Alcotest.test_case "resync ablation" `Quick test_multi_sim_resync_ablation;
      Alcotest.test_case "non-negative estimates" `Quick test_multi_sim_never_estimates_negative;
      Alcotest.test_case "stepper matches batch" `Quick test_stepper_incremental_matches_batch;
      Alcotest.test_case "filtering normalized" `Quick test_filtering_posteriors_normalized;
      Alcotest.test_case "filtering tracks truth" `Quick test_filtering_map_matches_truth_on_clean_chain;
      Alcotest.test_case "likelihood diagnostic" `Quick test_filtering_likelihood_ranks_workloads;
      Alcotest.test_case "viterbi clean replay" `Quick test_viterbi_matches_online_on_clean_replay;
      Alcotest.test_case "viterbi known lattice" `Quick test_viterbi_known_lattice;
      Alcotest.test_case "viterbi unknown obs" `Quick test_viterbi_handles_unknown_observations;
      Alcotest.test_case "accuracy zero" `Quick test_accuracy_zero_error;
      Alcotest.test_case "accuracy known" `Quick test_accuracy_known_error;
      Alcotest.test_case "accuracy validates" `Quick test_accuracy_validates_lengths ]
    @ properties )
