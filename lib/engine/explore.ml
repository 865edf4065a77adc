type t = { seen : Stateset.t; pk : Pack.t }

type relation = {
  fire : unit -> unit;
  encode : unit -> unit;
  payload0 : unit -> int;
  payload1 : unit -> int;
  advance : unit -> bool;
}

type verdict =
  | Recurred of { p0 : int; p1 : int }
  | Deadlocked
  | Cap_exceeded
  | Budget_stop of Budget.reason

let create () = { seen = Stateset.create (); pk = Pack.create () }
let pack t = t.pk
let length t = Stateset.length t.seen
let stats t = Stateset.stats t.seen

let run t ~max_states ~budget rel =
  let seen = t.seen and pk = t.pk in
  let rec step () =
    rel.fire ();
    Pack.reset pk;
    rel.encode ();
    let revisit, q0, q1 =
      Stateset.find_or_add seen pk ~p0:(rel.payload0 ()) ~p1:(rel.payload1 ())
    in
    if revisit then Recurred { p0 = q0; p1 = q1 }
      (* The pre-unification reference engines check the cap before
         storing; the stateset stores first, so "stored one too many" is
         the same condition. *)
    else if Stateset.length seen > max_states then Cap_exceeded
    else begin
      (* Budget probe: one load and one branch per state when infinite;
         state/arena caps are exact, clock and token amortised inside
         [Budget.check]. *)
      let stop =
        if Budget.is_infinite budget then None
        else
          let arena_bytes =
            if Budget.arena_limited budget then Stateset.arena_bytes seen
            else 0
          in
          Budget.check budget ~states:(Stateset.length seen) ~arena_bytes
      in
      match stop with
      | Some reason -> Budget_stop reason
      | None -> if rel.advance () then step () else Deadlocked
    end
  in
  step ()

(* One sample per run: the seen-set's longest probe sequence. The gauge of
   the same name only keeps the last run; the histogram shows whether long
   probe chains are an outlier or the norm across a batch. *)
let probe_len_hist = Obs.Histogram.make "engine.probe_len"

let record_gauges (s : Stateset.stats) =
  Obs.Gauge.set_int "engine.arena_bytes" s.arena_bytes;
  Obs.Gauge.set_int "engine.resident_bytes" s.resident_bytes;
  Obs.Gauge.set "engine.bytes_per_state"
    (float_of_int s.arena_bytes /. float_of_int (max 1 s.states));
  Obs.Gauge.set "engine.occupancy"
    (float_of_int s.states /. float_of_int (max 1 s.slots));
  Obs.Gauge.set_int "engine.max_probe" s.max_probe;
  Obs.Histogram.record probe_len_hist (float_of_int s.max_probe)
