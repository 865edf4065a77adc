(** Synchronous Dataflow Graphs (paper, Definition 1).

    An SDFG is a finite set of actors connected by dependency channels
    ("edges" in the paper; we say channel to avoid clashing with graph-theory
    edges). A channel [d = (a, b, p, q)] carries [p] tokens produced per
    firing of [a] and [q] tokens consumed per firing of [b], plus a number of
    initial tokens [Tok d].

    The graph structure here is purely structural: execution times, resource
    requirements and bindings are layered on top by the [appmodel] and [core]
    libraries, because the same structure is reused with different timings
    (e.g. the binding-aware graph of paper Section 8.1).

    Actors and channels are referred to by dense integer indices, which every
    analysis in this library uses for array-based state. *)

type actor = { a_idx : int; a_name : string }

type channel = {
  c_idx : int;
  c_name : string;
  src : int;  (** producing actor index *)
  dst : int;  (** consuming actor index *)
  prod : int;  (** production rate [p >= 1] *)
  cons : int;  (** consumption rate [q >= 1] *)
  tokens : int;  (** initial tokens [>= 0] *)
}

type t
(** An immutable SDFG. *)

(** {1 Construction} *)

module Builder : sig
  type graph := t
  type t

  val create : unit -> t

  val add_actor : t -> string -> int
  (** [add_actor b name] registers an actor and returns its index. Names
      must be unique within a graph.
      @raise Invalid_argument on duplicate names. *)

  val add_channel :
    t -> ?name:string -> ?tokens:int -> src:int -> dst:int -> prod:int ->
    cons:int -> unit -> int
  (** Registers a channel and returns its index. The default [name] is
      ["dN"] for the [N]-th channel; [tokens] defaults to [0].
      @raise Invalid_argument on non-positive rates, negative token counts
      or out-of-range actor indices. *)

  val build : t -> graph
end

val of_lists :
  actors:string list ->
  channels:(string * string * int * int * int) list ->
  t
(** [of_lists ~actors ~channels] builds a graph from actor names and
    channels given as [(src_name, dst_name, prod, cons, tokens)]. Channel
    names are generated. Convenience wrapper over {!Builder} for tests and
    examples. *)

(** {1 Accessors} *)

val num_actors : t -> int
val num_channels : t -> int
val actor : t -> int -> actor
val channel : t -> int -> channel
val actors : t -> actor array
val channels : t -> channel array

val actor_index : t -> string -> int
(** The index of the actor with that name, by a linear scan: a graph
    keeps no name table, and parsers that resolve many names keep their
    own while building.
    @raise Not_found if no actor has that name. *)

val actor_name : t -> int -> string
val channel_name : t -> int -> string

val out_channels : t -> int -> int array
(** Channel indices produced by the given actor (self-loops included), in
    channel order. The array belongs to the graph: do not mutate it. *)

val in_channels : t -> int -> int array
(** Channel indices consumed by the given actor (self-loops included), in
    channel order. The array belongs to the graph: do not mutate it. *)

val is_self_loop : t -> int -> bool
(** Whether the channel's producer and consumer are the same actor. *)

val has_unit_self_loop : t -> int -> bool
(** Whether the actor has a self-loop channel with [prod = cons = 1] and at
    least one initial token, i.e. its auto-concurrency is already bounded
    (paper Section 8.1: such actors do not receive an extra self-edge in the
    binding-aware graph). *)

(** {1 Structure queries} *)

val is_weakly_connected : t -> bool
(** Whether the undirected version of the graph is connected (trivially true
    for the empty graph and singletons). *)

val map_tokens : t -> (channel -> int) -> t
(** Functionally update the initial-token count of every channel. *)

(** {1 Pretty printing} *)

val pp : Format.formatter -> t -> unit
(** Multi-line human-readable dump of the actors and channels. *)
