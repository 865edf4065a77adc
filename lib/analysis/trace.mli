module Sdfg = Sdf.Sdfg
module Rat = Sdf.Rat

(** Execution traces: the Fig.-5-style view of a state space.

    Self-timed (and constrained) executions are deterministic, so the
    explored state space is a lasso: a transient chain of states followed
    by a cycle. The paper draws these chains with each transition labelled
    by the actors that start firing and the elapsed time (Fig. 5). This
    module reconstructs that chain from the firing-start events of
    {!Selftimed.analyze} and renders it as text or Graphviz. *)

type transition = {
  at : int;  (** absolute time of the transition *)
  started : int list;  (** one entry per firing start, by actor index *)
}

type t = {
  transitions : transition list;  (** in time order; same-time starts merged *)
  transient : int;  (** time at which the periodic phase begins *)
  period : int;
  throughput : Rat.t array;
}

val selftimed : ?max_states:int -> Sdfg.t -> int array -> t
(** Trace the self-timed execution of a graph; arguments as in
    {!Selftimed.analyze}. *)

val of_events :
  events:(int * int) list -> transient:int -> period:int ->
  throughput:Rat.t array -> t
(** Build a trace from raw [(time, actor)] firing-start events collected by
    any engine's [observer] (e.g. the constrained execution); used to
    render Fig. 5(c). *)

val pp : (Format.formatter -> int -> unit) -> Format.formatter -> t -> unit
(** One line per transition: ["t=13  start a2, c_d1"], with the loop point
    of the periodic phase marked. *)

val to_dot : actor_name:(int -> string) -> t -> string
(** A Fig.-5-style chain: circle nodes, edges labelled with the started
    actors and the time elapsed to the next transition, and a back edge
    closing the periodic phase. *)
