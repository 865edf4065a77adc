module Appgraph = Appmodel.Appgraph
module Archgraph = Platform.Archgraph
module Strategy = Core.Strategy

(** Independent allocation validation and application-level differential
    oracles.

    {!validate} re-derives the paper's Section-7 resource constraints
    (slice within the available TDMA wheel, tile memory, NI connection
    count, in/out bandwidth, processor-type support, connection existence
    for split channels) and the throughput constraint straight from Gamma,
    Theta and the tile table — deliberately sharing no code with
    {!Core.Binding} or {!Core.Strategy}, so an accounting bug on either
    side surfaces as a disagreement rather than being validated by its own
    mirror image.

    The invariance oracles assert that the memoization layer is
    observationally invisible: {!Core.Flow} and {!Core.Multi_app} results
    are byte-identical (modulo wall-clock timings) with memoization on or
    off. *)

val validate :
  Archgraph.t -> Strategy.allocation -> (unit, string) result
(** [validate arch alloc] with [arch] the architecture the allocation was
    produced against (i.e. [alloc.arch] for a fresh allocation). *)

val allocation_summary : Strategy.allocation -> string
(** Canonical seconds-free rendering (throughput, check count, binding,
    slices); equal strings [<=>] equal allocations. *)

val constrained_engine_agreement :
  max_states:int -> Appgraph.t -> Archgraph.t -> Oracle.outcome
(** Binds the application (paper default weights (0,1,2)), builds the
    binding-aware graph under half-wheel slices, list-schedules it, and
    runs the constrained analysis through both the packed engine
    ({!Core.Constrained.analyze}) and the retained reference
    ({!Core.Constrained.analyze_reference}); every result field (and every
    reified negative outcome) must match. Skips when no feasible binding
    or schedule exists. *)

val flow_invariance :
  max_states:int -> Appgraph.t -> Archgraph.t -> Oracle.outcome
(** Runs {!Core.Flow.allocate_with_retry} with memoization on and off;
    both must agree attempt by attempt, and a successful allocation must
    satisfy both {!validate} and {!Core.Strategy.is_valid}. Restores the
    global memo state. *)

val multi_app_invariance :
  max_states:int -> Appgraph.t list -> Archgraph.t -> Oracle.outcome
(** Same two configurations for
    {!Core.Multi_app.allocate_until_failure} under the [Skip_failed]
    policy; the full report (allocations, rejections, resource totals)
    must agree. *)
