(** Allocation-as-a-service: the wire protocol, QoS budgets, admission
    control and request handling behind [bin/sdf3_serve].

    The daemon accepts newline-delimited JSON requests over a Unix-domain
    (and optionally loopback-TCP) socket. One request is one line; one
    response is one line; request [id]s are echoed back; malformed input
    is answered with a structured error, never a crash. Work verbs
    ([analyze], [flow], [sleep]) pass admission control — a bounded
    in-flight window rejected with ["overloaded"] when full — and run
    under a per-request {!Budget.t} derived from the request's QoS tier.
    Control verbs ([ping], [status], [stats], [drain]) always run.

    Requests:
    {v
    {"id":"r1","verb":"flow","file":"app.xml","platform":"mesh3x3","tier":"standard"}
    {"id":"r2","verb":"analyze","file":"app.xml","tier":"interactive"}
    {"id":"r3","verb":"status"}
    {"id":"r4","verb":"drain"}
    v}
    Responses:
    {v
    {"id":"r1","status":"ok","verb":"flow","result":{"case":"app.xml","status":"allocated","throughput":"1/4020"}}
    {"id":null,"status":"error","error":"parse error: ..."}
    {"id":"r9","status":"overloaded","error":"server at capacity"}
    v}

    The [result] object of a [flow] response is byte-identical to the
    corresponding [sdf3_batch] journal line (both are produced by
    {!Journal}), so a served journal can be [cmp]'d against a one-shot
    batch run over the same inputs — CI's serve-smoke job does exactly
    that. *)

(** QoS tiers and their resource budgets. Every tier's budget carries the
    server's shared cancel token, so [SIGTERM] interrupts even an
    unbounded batch request at its next budget probe. *)
module Tier : sig
  type t = Interactive | Standard | Batch

  val all : t list

  val label : t -> string
  (** ["interactive"], ["standard"], ["batch"] — the wire names, also used
      in the ["server.tier.*"] counters. *)

  val of_string : string -> (t, string) result

  val budget : ?cancel:Budget.Cancel.t -> t -> Budget.t
  (** [Interactive]: 1 s wall deadline, 200k-state cap — bounded latency,
      may degrade to a partial answer. [Standard]: 10 s, 2M states.
      [Batch]: no caps beyond the cancel token. *)
end

(** The deterministic JSONL journal format shared by [sdf3_batch] and the
    daemon's request log: one object per case, fields in a fixed order,
    no timings or state counts, so runs over the same inputs are
    byte-comparable. *)
module Journal : sig
  val allocated : case:string -> Sdf.Rat.t -> Obs.Json.t
  val partial : case:string -> Budget.reason -> Obs.Json.t
  val failed : case:string -> string -> Obs.Json.t
  val error : case:string -> string -> Obs.Json.t

  val failure_label : Core.Strategy.failure -> string
  (** ["bind_failed"], ["schedule_failed"], ["slice_failed"],
      ["budget_exhausted"]. *)

  val of_flow_result : case:string -> Core.Flow.result -> Obs.Json.t
  (** Fold an [allocate_with_retry] outcome into its journal object:
      allocated / partial (budget ran out) / failed (last attempt's
      failure label) / ["no_attempt"]. *)

  val to_line : Obs.Json.t -> string
  (** Compact one-line encoding, no trailing newline. *)
end

(** The bounded in-flight window with priority admission. Work verbs
    [try_admit] and are rejected when their class's share of the window
    is full or the server is draining; control verbs [enter_control]
    unconditionally. Both must [release]. [wait_idle] blocks until
    nothing is in flight — the drain path.

    Two admission classes: [reserved] slots are held back for
    {e privileged} (interactive-tier) requests. Normal work admits only
    while fewer than [capacity - reserved] normal requests are in
    flight; privileged work may fill the whole window. Two counters
    record the mechanism working: ["server.preempt.reserved_admits"]
    (privileged admissions that landed on the reserve while the general
    pool was full) and ["server.preempt.normal_blocked"] (normal
    rejections issued while free-but-reserved slots existed). *)
module Admission : sig
  type t

  type decision = Admitted | Overloaded | Draining

  val create : ?reserved:int -> capacity:int -> unit -> t
  (** [capacity] is clamped to at least 1; [reserved] (default 0) to
      [0 <= reserved <= capacity - 1], so at least one general slot
      always exists. *)

  val capacity : t -> int

  val reserved : t -> int
  (** Slots held back for privileged admissions (after clamping). *)

  val try_admit : ?privileged:bool -> t -> decision
  (** [privileged] (default false) requests may use reserved slots;
      normal requests are [Overloaded] once the general pool
      ([capacity - reserved]) is occupied. *)

  val release : ?privileged:bool -> t -> unit
  (** End one admitted work request. [privileged] must match the
      admission call. *)

  val enter_control : t -> unit
  val exit_control : t -> unit
  (** Bracket a control section (request parsing, control verbs, response
      writes). Control sections are never rejected but are waited for by
      {!wait_idle}, so a drain cannot cut a response mid-write. *)

  val in_flight : t -> int
  (** Admitted {e work} requests currently executing (control sections are
      tracked separately and excluded — [status] does not count itself). *)

  val normal_in_flight : t -> int
  val privileged_in_flight : t -> int
  (** Per-class occupancy, for tests and the status verb. *)

  val begin_drain : t -> unit
  (** Stop admitting work (idempotent). Already-admitted requests run to
      completion; new work verbs are answered ["draining"]. *)

  val draining : t -> bool

  val wait_idle : t -> unit
  (** Block until no work or control request is in flight. Returns
      immediately when idle. *)
end

(** The two-class FIFO queue feeding the daemon's worker pool. Reader
    threads [submit] admitted jobs; workers [take] them — privileged
    jobs always dequeue before normal ones, arrival order is preserved
    within each class. Bounded implicitly: jobs are only submitted after
    {!Admission.try_admit}, so the queue never exceeds the admission
    capacity. *)
module Workqueue : sig
  type t

  val create : unit -> t

  val submit : t -> privileged:bool -> (unit -> unit) -> unit
  (** Enqueue a job. After {!close}, runs the job inline in the caller
      instead — an admitted request is never dropped. *)

  val take : t -> (unit -> unit) option
  (** Block for the next job (privileged first, FIFO within class);
      [None] once the queue is closed and empty — the worker exit
      signal. *)

  val try_take : t -> (unit -> unit) option
  (** Non-blocking {!take} ([None] when empty, closed or not). *)

  val length : t -> int

  val close : t -> unit
  (** Wake all blocked workers; [take] returns [None] once empty. *)
end

(** One parsed request. *)
module Request : sig
  type verb =
    | Ping
    | Status
    | Stats
        (** Wire export of the telemetry registry: all [Obs] counters and
            histogram snapshots, so a load harness can poll
            ["server.preempt.*"] and per-tier latency quantiles without a
            metrics file. *)
    | Drain
    | Sleep of { ms : int }
        (** Hold an admission slot for [ms] milliseconds — an operational
            diagnostic (and the deterministic way to pin the window in
            tests). Interrupted by the shared cancel token. *)
    | Analyze of { file : string }
    | Flow of { file : string; platform : string }

  type t = { id : string option; verb : verb; tier : Tier.t }

  val of_line : string -> (t, string) result
  (** Parse one wire line. [tier] defaults to [Standard]; [platform] to
      ["multimedia"]. The error string is safe to echo back. *)
end

(** The request handler: everything between a wire line in and a wire
    line out — parsing, admission, tier budgets, execution, journaling
    and the [server.*] telemetry. Socket-free, so tests drive it
    directly. *)
module Handler : sig
  type t

  val create :
    ?root:string ->
    ?journal:out_channel ->
    ?cancel:Budget.Cancel.t ->
    admission:Admission.t ->
    unit ->
    t
  (** [root] (default ".") anchors request [file] fields; [journal]
      receives one flushed journal line per executed [flow] request;
      [cancel] is the shared drain token threaded into every request
      budget. *)

  val dispatch :
    t ->
    write:(string -> unit) ->
    submit:(privileged:bool -> (unit -> unit) -> unit) ->
    string ->
    unit
  (** The pipelining entry point. Control verbs, parse errors and
      admission rejections are answered inline via [write] on the
      calling thread; each admitted work verb is handed to [submit] as a
      self-contained job that executes the work and calls [write] with
      its own response. [privileged] mirrors the admission class
      (interactive tier) so the daemon's {!Workqueue} can order jobs.
      The job releases its admission slot only {e after} its response
      write, so a drain that waits for the admission window to empty has
      also waited for every response byte. *)

  val handle : t -> string -> string
  (** One request line to one response line (no trailing newline):
      {!dispatch} with inline execution. Never raises: internal failures
      become this request's ["error"] response (and journal line), not
      the daemon's crash. *)

  val requests_served : t -> int
  val requests_rejected : t -> int

  val admission : t -> Admission.t
end

val platform_of_string :
  string -> (Platform.Archgraph.t, string) result
(** ["example"], ["multimedia"] or ["mesh3x3"] — the shared CLI platform
    names. *)

(** The socket front-end: listeners, per-connection reader threads with
    idle/read timeouts, a bounded worker pool executing admitted work
    off the reader threads (per-connection pipelining), and the
    drain-aware accept loop. *)
module Daemon : sig
  type config = {
    socket_path : string;  (** Unix-domain listener (always on) *)
    tcp_port : int option;  (** optional loopback TCP listener *)
    read_timeout_s : float;  (** mid-line stall allowance *)
    idle_timeout_s : float;  (** between-requests allowance *)
    max_line_bytes : int;
    workers : int;
        (** Worker-pool size; [0] (the default) means one worker per
            admission slot, so an admitted request never waits behind the
            queue for longer than the window already implies. *)
  }

  val default_config : socket_path:string -> config

  val run :
    ?external_stop:(unit -> bool) ->
    ?on_ready:(unit -> unit) ->
    config ->
    Handler.t ->
    cancel:Budget.Cancel.t ->
    int
  (** Serve until drained: accept connections, one reader thread per
      connection, admitted work executed by the worker pool with
      responses serialized per connection (a client may pipeline many
      requests on one socket; responses may arrive out of request order,
      matched by [id]). Returns 0 after a graceful drain ([drain] verb,
      or [external_stop] returning true — the SIGTERM flag — which
      additionally triggers [cancel] so in-flight budgeted work stops at
      its next probe). On drain, readers stop consuming input, every
      admitted request's response is written, connections see a clean
      end-of-stream, and the socket file is unlinked on exit. *)
end
