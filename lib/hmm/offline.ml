module Psm = Psm_core.Psm
module Prop_trace = Psm_mining.Prop_trace
module Table = Prop_trace.Table

(* Smoothing floor: keeps the lattice connected through observations or
   transitions absent from training, at negligible cost to likelihoods
   that training does support. *)
let floor_p = 1e-9

let log_f v = log (Float.max v floor_p)

(* Max-product over the per-instant lattice. The PSM's A matrix is
   defined over state CHANGES (segment boundaries); the lattice
   additionally needs the probability of staying put, from each state's
   expected dwell ({!Hmm.dwell}).

   Key observation: every ABSENT edge (i, j) has the same log weight
   c = log floor_p (its dense entry is log_f 0.), so the best absent
   predecessor of ANY column is determined by the previous scores alone. The best absent predecessor of column j is the first row
   NOT stored in column j when rows are ranked by (score desc, index
   asc) — and since column j stores at most [max_in] rows, that first
   absent row always sits within the top [max_in + 1] of the ranking. So
   per step we select only those top-K rows (one O(m) pass with an O(K)
   bounded insertion — K is the max in-degree plus one, a small constant
   on chain-sparse models) instead of sorting all m rows; per column we
   scan the stored incoming edges (CSC, diagonal always present) and take
   the first unstored row of the top-K list, reproducing the dense scan's
   lowest-index-strict-max tie-breaking exactly. *)
let max_product hmm observations =
  let m = Hmm.state_count hmm in
  let n = Array.length observations in
  let dwell = Hmm.dwell hmm in
  let c = log_f 0. in
  let csr = Hmm.a_sparse hmm in
  (* CSC of the log lattice: incoming (i, log weight) per column j,
     ascending i, with the dwell diagonal inserted where A has none. *)
  let counts = Array.make (m + 1) 0 in
  for i = 0 to m - 1 do
    let has_diag = ref false in
    Sparse.iter_row csr i (fun j _ ->
        if j = i then has_diag := true;
        counts.(j + 1) <- counts.(j + 1) + 1);
    if not !has_diag then counts.(i + 1) <- counts.(i + 1) + 1
  done;
  for j = 0 to m - 1 do
    counts.(j + 1) <- counts.(j + 1) + counts.(j)
  done;
  let col_ptr = counts in
  let in_rows = Array.make (max col_ptr.(m) 1) 0 in
  let in_vals = Array.make (max col_ptr.(m) 1) 0. in
  let cursor = Array.copy col_ptr in
  for i = 0 to m - 1 do
    let stay = 1. -. (1. /. dwell.(i)) in
    let emit j la =
      let slot = cursor.(j) in
      in_rows.(slot) <- i;
      in_vals.(slot) <- la;
      cursor.(j) <- slot + 1
    in
    let has_diag = ref false in
    Sparse.iter_row csr i (fun j v ->
        if j = i then begin
          has_diag := true;
          emit j (log_f (Float.max stay v))
        end
        else emit j (log_f ((1. -. stay) *. v)));
    if not !has_diag then emit i (log_f stay)
  done;
  (* Log emissions per (proposition, row), computed once: the lattice
     reads one row per instant. Out-of-vocabulary propositions (never
     interned by training) get their floored row on the spot. *)
  let nprops = Table.prop_count (Psm.prop_table (Hmm.psm hmm)) in
  let log_b =
    Array.init nprops (fun p -> Array.init m (fun row -> log_f (Hmm.b_obs hmm row p)))
  in
  let uninformative = Array.make m 0. in
  let emission_row t =
    match observations.(t) with
    | None -> uninformative
    | Some p when p >= 0 && p < nprops -> log_b.(p)
    | Some p -> Array.init m (fun row -> log_f (Hmm.b_obs hmm row p))
  in
  let back = Array.make_matrix n m 0 in
  let prev = Array.make m neg_infinity in
  let cur = Array.make m neg_infinity in
  let pi = Hmm.pi hmm in
  let e0 = emission_row 0 in
  for j = 0 to m - 1 do
    prev.(j) <- log_f pi.(j) +. e0.(j)
  done;
  (* Top-K selection bound: a column stores at most [max_in] incoming
     rows, so its best absent predecessor is always within the best
     [max_in + 1] rows of the (score desc, index asc) ranking. *)
  let max_in = ref 0 in
  for j = 0 to m - 1 do
    max_in := max !max_in (col_ptr.(j + 1) - col_ptr.(j))
  done;
  let cap = min m (!max_in + 1) in
  let top = Array.make cap 0 in
  let top_score = Array.make cap neg_infinity in
  let stored = Array.make m 0 in (* column stamp: marks stored rows *)
  let stamp = ref 0 in
  for t = 1 to n - 1 do
    (* The best [cap] rows by (prev score desc, index asc): one linear
       pass with an O(cap) bounded insertion — O(m) total on the
       chain-sparse matrices this kernel exists for, replacing the old
       full O(m log m) sort. Scanning i ascending makes equal scores
       land in ascending-index order without comparing indices. *)
    let len = ref 0 in
    for i = 0 to m - 1 do
      let s = Array.unsafe_get prev i in
      if !len < cap || s > top_score.(cap - 1) then begin
        let p = ref !len in
        while !p > 0 && s > top_score.(!p - 1) do
          decr p
        done;
        let last = min !len (cap - 1) in
        for k = last downto !p + 1 do
          top.(k) <- top.(k - 1);
          top_score.(k) <- top_score.(k - 1)
        done;
        if !p < cap then begin
          top.(!p) <- i;
          top_score.(!p) <- s;
          if !len < cap then incr len
        end
      end
    done;
    let e = emission_row t in
    for j = 0 to m - 1 do
      let lo = col_ptr.(j) and hi = col_ptr.(j + 1) in
      (* Stored incoming edges, ascending i: dense tie-break is strict >. *)
      let best = ref neg_infinity and arg = ref 0 in
      for k = lo to hi - 1 do
        let candidate = prev.(in_rows.(k)) +. in_vals.(k) in
        if candidate > !best then begin
          best := candidate;
          arg := in_rows.(k)
        end
      done;
      (* Absent edges all weigh c: the first row of the top-K ranking
         not stored in this column is the dense scan's winner among
         them — highest floored score, lowest index among its ties. *)
      if hi - lo < m then begin
        incr stamp;
        for k = lo to hi - 1 do
          stored.(in_rows.(k)) <- !stamp
        done;
        let k = ref 0 in
        while !k < !len && stored.(top.(!k)) = !stamp do
          incr k
        done;
        if !k < !len then begin
          let i = top.(!k) in
          let best_a = top_score.(!k) +. c in
          if best_a > !best || (best_a = !best && i < !arg) then begin
            best := best_a;
            arg := i
          end
        end
      end;
      cur.(j) <- !best +. e.(j);
      back.(t).(j) <- !arg
    done;
    Array.blit cur 0 prev 0 m
  done;
  let path = Array.make n 0 in
  let best = ref neg_infinity in
  for j = 0 to m - 1 do
    if prev.(j) > !best then begin
      best := prev.(j);
      path.(n - 1) <- j
    end
  done;
  for t = n - 2 downto 0 do
    path.(t) <- back.(t + 1).(path.(t + 1))
  done;
  path

let viterbi hmm observations =
  if Array.length observations = 0 then [||] else max_product hmm observations

let observations hmm trace = Prop_trace.observations (Psm.prop_table (Hmm.psm hmm)) trace

let decode hmm trace =
  Array.map (Hmm.state_of_row hmm) (viterbi hmm (fst (observations hmm trace)))

let estimate hmm trace =
  let psm = Hmm.psm hmm in
  let obs, hd = observations hmm trace in
  Array.mapi
    (fun t row ->
      Psm.eval_output (Psm.state psm (Hmm.state_of_row hmm row)).Psm.output ~hamming:hd.(t))
    (viterbi hmm obs)

let evaluate hmm trace ~reference =
  Accuracy.of_estimate ~reference ~estimate:(estimate hmm trace) ~wsp:0.
