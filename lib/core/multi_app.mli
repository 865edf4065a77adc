module Appgraph = Appmodel.Appgraph
module Archgraph = Platform.Archgraph

(** Multi-application allocation (paper Section 10.1 protocol, plus the
    improvements the paper names).

    Applications are handled one by one; after each successful allocation
    the consumed resources are removed from the architecture (slice time
    becomes occupied wheel; memory, NI connections and bandwidth shrink), so
    the next application only sees what is left — the paper's "resources
    that are not available should not be specified".

    The paper's experimental protocol stops at the first application that
    cannot be placed, "a conservative estimate on the number of
    applications for which resources can be allocated", and suggests two
    improvements: a design-time preprocessing step ordering the
    applications, and a run-time mechanism that rejects an application and
    continues with the next one. Both are provided here ({!order} and
    {!failure_policy}) and quantified by the E14 bench. *)

type failure_policy =
  | Stop_at_first_failure  (** the paper's protocol (default) *)
  | Skip_failed  (** reject the application, keep going *)

type order =
  | As_given  (** the paper's protocol (default) *)
  | By_total_work_descending
      (** heaviest applications first, while resources are plentiful *)
  | By_total_work_ascending  (** lightest first, maximising the count *)

type report = {
  allocations : Strategy.allocation list;  (** in allocation order *)
  rejected : Appgraph.t list;
      (** applications skipped under {!Skip_failed}, in order *)
  remaining : Archgraph.t;  (** the architecture after the last success *)
  first_failure : Strategy.failure option;
      (** why the first rejected application failed ([None] when all
          fitted) *)
  wheel_used : int;  (** total slice time committed, all tiles *)
  memory_used : int;
  connections_used : int;
  bw_in_used : int;
  bw_out_used : int;
}

val commit : Archgraph.t -> Strategy.allocation -> Archgraph.t
(** The architecture with the allocation's resources removed. *)

val allocate_until_failure :
  ?weights:Cost.weights ->
  ?retry_ladder:Cost.weights list ->
  ?max_states:int ->
  ?budget:Budget.t ->
  ?policy:failure_policy ->
  ?order:order ->
  Appgraph.t list ->
  Archgraph.t ->
  report
(** Allocate the applications under the given policy and order. Defaults
    reproduce the paper's protocol: in the given order, stopping at the
    first failure, one cost-function setting.

    [retry_ladder] switches each application to {!Flow.allocate_with_retry}
    over the given settings ([weights] is then ignored) — the SDF3-style
    revision loop applied per application. [budget] (default infinite) is
    shared by every per-application ladder: an exhausted budget surfaces
    as a [Budget_exhausted] failure for the application that hit it, which
    the policy then treats like any other failure (stop or skip). *)
