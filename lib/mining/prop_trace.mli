(** Phase 2 of the mining procedure: propositions and proposition traces.

    A proposition is the AND-composition of one complete row of the truth
    matrix [m] — every atom of the vocabulary appears either positively or
    negated — so distinct propositions are mutually exclusive and, over the
    rows actually observed, exactly one holds at each instant (paper
    Def. 2's requirement on [Prop]).

    Propositions are interned in a {!Table}: equal truth rows are the same
    proposition across all traces of the same IP, which is what later
    makes temporal assertions comparable across PSMs during [join]. *)

module Table : sig
  type t

  val create : Vocabulary.t -> t
  val vocabulary : t -> Vocabulary.t

  val prop_count : t -> int

  val classify_or_add : t -> Psm_bits.Bits.t array -> int
  (** Proposition id of the sample's truth row, interning it if new
      (training-time use). *)

  val classify : t -> Psm_bits.Bits.t array -> int option
  (** [None] when the row was never seen during training — an unknown
      functional behaviour (simulation-time use). *)

  val intern_row : t -> bool array -> int
  (** Intern a truth row directly (model reload); the row must have
      exactly [Vocabulary.size] entries. Idempotent on equal rows. *)

  val row : t -> int -> bool array
  (** The truth row of a proposition. *)

  val true_atoms : t -> int -> Atomic.t list

  val name : t -> int -> string
  (** Stable display name in first-interned order: p_a, p_b, …, p_z,
      p_aa, … *)

  val pp_prop : t -> Format.formatter -> int -> unit
  (** Renders the positive literals, Fig. 3 style:
      [p_a: we = 1 & ce = 1]. *)
end

type t
(** A proposition trace Γ: one proposition id per instant. *)

val of_functional : ?pool:Psm_par.Pool.t -> Table.t -> Psm_trace.Functional_trace.t -> t
(** Classifies (and interns) every instant, one classification per run
    of identical samples. When the runs are short and [pool] (default:
    the global {!Psm_par} pool) has several jobs, truth rows are instead
    packed per instant in parallel and then interned sequentially in
    time order. Either way proposition ids, and hence Γ, equal those of
    one {!Table.classify_or_add} per instant in time order. *)

val of_ids : Table.t -> int array -> t
(** Γ from proposition ids already interned in the table (copied).
    Raises [Invalid_argument] on an id the table does not know. *)

val table : t -> Table.t
val length : t -> int
val prop_at : t -> int -> int

val prop_ids : t -> int array
(** A copy of Γ as raw ids. *)

val segments : t -> (int * int * int) list
(** Maximal constant runs as [(prop, start, stop)] triples, in order —
    the view generation works from. Computed once on first use and
    cached. *)

val iter_prop_runs : t -> start:int -> stop:int -> (int -> start:int -> len:int -> unit) -> unit
(** [iter_prop_runs t ~start ~stop f] calls [f prop ~start ~len] once per
    maximal constant stretch of Γ intersected with the inclusive window
    [start, stop], in time order. O(log #segments + #covered segments)
    via the cached segment view. *)

val holds_exactly_one : t -> Psm_trace.Functional_trace.t -> bool
(** Validates the Def. 2 invariant against the originating functional
    trace: at every instant the recorded proposition (and no other
    interned proposition) holds. *)

(** {1 Observations}

    What the estimators read at each instant (paper Sec. V): the
    proposition the sample satisfies ([None] = a truth row training never
    saw) and the input Hamming distance to the previous sample
    ({!Psm_trace.Functional_trace.input_distance}), which data-dependent
    states regress on. This is where samples become observations; the
    estimators consume observations only. *)

val iter_observations :
  Table.t ->
  Psm_trace.Functional_trace.t ->
  (start:int -> len:int -> int option -> hamming:float -> unit) ->
  unit
(** [iter_observations table trace f] calls [f ~start ~len obs ~hamming]
    once per run of identical samples, in time order, with one
    {!Table.classify} per run. [hamming] is the input distance of instant
    [start] to instant [start - 1] (0 at instant 0); every later instant
    of the run repeats its predecessor, so its distance is 0. *)

val observations :
  Table.t -> Psm_trace.Functional_trace.t -> int option array * float array
(** Per-instant array form of {!iter_observations} — (observation, input
    Hamming distance) indexed by time, for the offline consumers
    (forward filtering, Viterbi). *)

(** The live form, for samples that arrive one at a time (co-simulation,
    the streaming trainer). It keeps a private copy of the previous
    sample: a repeated sample reuses the previous classification and has
    distance 0. Feeding a trace's samples in order yields exactly
    {!observations}. *)
module Observer : sig
  type t

  val create : Table.t -> t
  val table : t -> Table.t

  val observe : t -> Psm_bits.Bits.t array -> int option
  (** Classify the next sample ([None] = unknown row); {!hamming} then
      reads its input distance. The array is copied where retained. *)

  val observe_or_add : t -> Psm_bits.Bits.t array -> int
  (** {!observe} with {!Table.classify_or_add}: interns a new row
      (training). *)

  val hamming : t -> float
  (** Input distance of the last observed sample to the one before it;
      0 for the first sample since {!create} or {!reset}. *)

  val last : t -> int option
  (** The last observation; [None] before the first sample since
      {!create} or {!reset}. *)

  val reset : t -> unit
  (** Forget the previous sample (a trace boundary). *)
end

val pp : Format.formatter -> t -> unit
