(* Dense reference kernels for the HMM inference paths in Psm_hmm.

   Each loop here touches all m² entries of the matrix it reads, in
   ascending index order: the textbook form of the algorithm. The
   production kernels (CSR/CSC forward filtering, top-K sparse Viterbi)
   must reproduce these results exactly — the same floats, the same
   paths — so the tests compare them with [=] and the bench times the
   production kernels against them. Nothing outside test/ and bench/
   links this library. *)

(* Per-cycle mining, classification, generation and training: the
   references for the run-length production paths. *)
module Per_cycle = Per_cycle

module Hmm = Psm_hmm.Hmm

(* The same smoothing floor as Filtering and Offline. *)
let floor_p = 1e-9

(* Forward filtering: the normalized α recursion over the dense
   dwell-corrected per-instant matrix A'. *)
module Forward = struct
  type t = { hmm : Hmm.t; a_instant : float array array }

  let create hmm =
    let m = Hmm.state_count hmm in
    let dwell = Hmm.dwell hmm in
    let a_instant =
      Array.init m (fun i ->
          let stay = 1. -. (1. /. dwell.(i)) in
          let row =
            Array.init m (fun j ->
                if i = j then Float.max stay (Hmm.a hmm i j)
                else (1. -. stay) *. Hmm.a hmm i j)
          in
          let total = Array.fold_left ( +. ) 0. row in
          if total > 0. then Array.map (fun v -> v /. total) row else row)
    in
    { hmm; a_instant }

  let emission t row = function
    | None -> 1.
    | Some prop -> Float.max floor_p (Hmm.b_obs t.hmm row prop)

  (* [emit time alpha] sees each normalized belief (reused array);
     returns the log likelihood. *)
  let iter t observations ~emit =
    let m = Hmm.state_count t.hmm in
    let n = Array.length observations in
    let log_lik = ref 0. in
    if n > 0 then begin
      let alpha = Array.make m 0. and scratch = Array.make m 0. in
      let pi = Hmm.pi t.hmm in
      for j = 0 to m - 1 do
        alpha.(j) <- pi.(j) *. emission t j observations.(0)
      done;
      let normalize v =
        let total = Array.fold_left ( +. ) 0. v in
        if total > 0. then begin
          Array.iteri (fun i x -> v.(i) <- x /. total) v;
          total
        end
        else begin
          Array.iteri (fun i _ -> v.(i) <- 1. /. float_of_int m) v;
          floor_p
        end
      in
      log_lik := log (normalize alpha);
      emit 0 alpha;
      for time = 1 to n - 1 do
        for j = 0 to m - 1 do
          let acc = ref 0. in
          for i = 0 to m - 1 do
            acc := !acc +. (alpha.(i) *. t.a_instant.(i).(j))
          done;
          scratch.(j) <- !acc *. emission t j observations.(time)
        done;
        Array.blit scratch 0 alpha 0 m;
        log_lik := !log_lik +. log (normalize alpha);
        emit time alpha
      done
    end;
    !log_lik

  let posteriors t observations =
    let post = Array.make (Array.length observations) [||] in
    let (_ : float) =
      iter t observations ~emit:(fun time alpha -> post.(time) <- Array.copy alpha)
    in
    post

  let log_likelihood t observations = iter t observations ~emit:(fun _ _ -> ())
end

(* Viterbi: log-domain max-product over the dense per-instant lattice,
   strict [>] so the lowest predecessor index wins ties. *)
let viterbi hmm observations =
  let m = Hmm.state_count hmm in
  let n = Array.length observations in
  if n = 0 then [||]
  else begin
    let log_f v = log (Float.max v floor_p) in
    let dwell = Hmm.dwell hmm in
    let log_a =
      Array.init m (fun i ->
          let stay = 1. -. (1. /. dwell.(i)) in
          Array.init m (fun j ->
              if i = j then log_f (Float.max stay (Hmm.a hmm i j))
              else log_f ((1. -. stay) *. Hmm.a hmm i j)))
    in
    let emission row t =
      match observations.(t) with
      | None -> 0. (* uninformative *)
      | Some prop -> log_f (Hmm.b_obs hmm row prop)
    in
    let score = Array.make_matrix n m neg_infinity in
    let back = Array.make_matrix n m 0 in
    let pi = Hmm.pi hmm in
    for j = 0 to m - 1 do
      score.(0).(j) <- log_f pi.(j) +. emission j 0
    done;
    for t = 1 to n - 1 do
      for j = 0 to m - 1 do
        let best = ref neg_infinity and arg = ref 0 in
        for i = 0 to m - 1 do
          let candidate = score.(t - 1).(i) +. log_a.(i).(j) in
          if candidate > !best then begin
            best := candidate;
            arg := i
          end
        done;
        score.(t).(j) <- !best +. emission j t;
        back.(t).(j) <- !arg
      done
    done;
    let path = Array.make n 0 in
    let best = ref neg_infinity in
    for j = 0 to m - 1 do
      if score.(n - 1).(j) > !best then begin
        best := score.(n - 1).(j);
        path.(n - 1) <- j
      end
    done;
    for t = n - 2 downto 0 do
      path.(t) <- back.(t + 1).(path.(t + 1))
    done;
    path
  end
