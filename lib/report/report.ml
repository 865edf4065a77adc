(* HTML run-report generator. Everything here is plain string assembly on
   the parsed JSON documents — deterministic output (no clocks, no
   environment) so the cram tests can grep the markup, and one
   self-contained page so a report can be archived next to its journal. *)

module Json = Obs.Json

(* ------------------------------------------------------------------ *)
(* Input models                                                        *)

type timer = {
  tm_count : int;
  tm_total : float;
  tm_mean : float;
  tm_m2 : float; (* Welford M2 = stddev^2 * count, mergeable *)
  tm_min : float;
  tm_max : float;
}

type hist = {
  hs_count : int;
  hs_p50 : float;
  hs_p90 : float;
  hs_p99 : float;
  hs_max : float;
}

type registry = {
  r_label : string;
  r_counters : (string * int) list;
  r_gauges : (string * float) list;
  r_timers : (string * timer) list;
  r_hists : (string * hist) list;
  r_event_kinds : (string * int) list; (* kind -> stored events *)
  r_dropped : (string * int) list; (* kind -> dropped events *)
}

type case = {
  c_case : string;
  c_status : string;
  c_reason : string option;
  c_throughput : string option;
  c_message : string option;
}

type journal = { j_label : string; j_cases : case list }

let num = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

let as_int = function
  | Json.Int i -> Some i
  | Json.Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let field j k = Json.member k j
let numf j k d = match field j k with Some v -> Option.value ~default:d (num v) | None -> d
let intf j k d = match field j k with Some v -> Option.value ~default:d (as_int v) | None -> d

let strf j k =
  match field j k with Some (Json.String s) -> Some s | _ -> None

let registry_of_json ~label j =
  match j with
  | Json.Assoc _ ->
      let section k =
        match field j k with Some (Json.Assoc kvs) -> kvs | _ -> []
      in
      let counters =
        List.filter_map
          (fun (k, v) -> Option.map (fun i -> (k, i)) (as_int v))
          (section "counters")
      in
      let gauges =
        List.filter_map
          (fun (k, v) -> Option.map (fun f -> (k, f)) (num v))
          (section "gauges")
      in
      let timers =
        List.map
          (fun (k, v) ->
            let count = intf v "count" 0 in
            let stddev = numf v "stddev_s" 0. in
            ( k,
              {
                tm_count = count;
                tm_total = numf v "total_s" 0.;
                tm_mean = numf v "mean_s" 0.;
                tm_m2 = stddev *. stddev *. float_of_int count;
                tm_min = numf v "min_s" 0.;
                tm_max = numf v "max_s" 0.;
              } ))
          (section "timers")
      in
      let hists =
        List.map
          (fun (k, v) ->
            ( k,
              {
                hs_count = intf v "count" 0;
                hs_p50 = numf v "p50" 0.;
                hs_p90 = numf v "p90" 0.;
                hs_p99 = numf v "p99" 0.;
                hs_max = numf v "max" 0.;
              } ))
          (section "histograms")
      in
      let event_kinds =
        let tbl = Hashtbl.create 16 in
        (match field j "events" with
        | Some (Json.List evs) ->
            List.iter
              (fun ev ->
                match strf ev "kind" with
                | Some kind ->
                    Hashtbl.replace tbl kind
                      (1 + Option.value ~default:0 (Hashtbl.find_opt tbl kind))
                | None -> ())
              evs
        | _ -> ());
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
        |> List.sort compare
      in
      let dropped =
        match field j "events_dropped" with
        | Some (Json.Assoc kvs) ->
            List.filter_map
              (fun (k, v) -> Option.map (fun i -> (k, i)) (as_int v))
              kvs
        (* Schema 1: one global count. *)
        | Some v -> (
            match as_int v with
            | Some n when n > 0 -> [ ("(all kinds)", n) ]
            | _ -> [])
        | None -> []
      in
      Ok
        {
          r_label = label;
          r_counters = counters;
          r_gauges = gauges;
          r_timers = timers;
          r_hists = hists;
          r_event_kinds = event_kinds;
          r_dropped = dropped;
        }
  | _ -> Error (label ^ ": registry is not a JSON object")

let journal_of_string ~label text =
  let lines = String.split_on_char '\n' text in
  let rec go acc lineno = function
    | [] -> Ok { j_label = label; j_cases = List.rev acc }
    | line :: rest ->
        let trimmed = String.trim line in
        if trimmed = "" then go acc (lineno + 1) rest
        else begin
          match Json.parse trimmed with
          | Error e ->
              Error (Printf.sprintf "%s:%d: %s" label lineno e)
          | Ok j -> (
              match (strf j "case", strf j "status") with
              | Some c, Some s ->
                  let case =
                    {
                      c_case = c;
                      c_status = s;
                      c_reason = strf j "reason";
                      c_throughput = strf j "throughput";
                      c_message = strf j "message";
                    }
                  in
                  go (case :: acc) (lineno + 1) rest
              | _ ->
                  Error
                    (Printf.sprintf "%s:%d: missing case/status field" label
                       lineno))
        end
  in
  go [] 1 lines

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)

let merge_timer a b =
  if a.tm_count = 0 then b
  else if b.tm_count = 0 then a
  else begin
    let na = float_of_int a.tm_count and nb = float_of_int b.tm_count in
    let n = na +. nb in
    let delta = b.tm_mean -. a.tm_mean in
    {
      tm_count = a.tm_count + b.tm_count;
      tm_total = a.tm_total +. b.tm_total;
      tm_mean = ((a.tm_mean *. na) +. (b.tm_mean *. nb)) /. n;
      tm_m2 = a.tm_m2 +. b.tm_m2 +. (delta *. delta *. na *. nb /. n);
      tm_min = Float.min a.tm_min b.tm_min;
      tm_max = Float.max a.tm_max b.tm_max;
    }
  end

let merged_assoc merge rows =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (k, v) ->
      match Hashtbl.find_opt tbl k with
      | None ->
          Hashtbl.add tbl k v;
          order := k :: !order
      | Some prev -> Hashtbl.replace tbl k (merge prev v))
    rows;
  List.rev_map (fun k -> (k, Hashtbl.find tbl k)) !order
  |> List.sort (fun (a, _) (b, _) -> compare (a : string) b)

(* Per-source naming for values that cannot be merged across registries
   (gauges are last-value-wins, histogram quantiles are not mergeable). *)
let labelled multi label k = if multi then label ^ " : " ^ k else k

(* ------------------------------------------------------------------ *)
(* HTML assembly                                                       *)

let esc s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string b "&amp;"
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '"' -> Buffer.add_string b "&quot;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let fnum v =
  if Float.is_integer v && Float.abs v < 1e9 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.4g" v

let fsec v = Printf.sprintf "%.6f" v

(* Inline bar sparkline; integer coordinates keep the markup stable. *)
let sparkline ?(width = 120) ?(height = 20) values =
  let n = List.length values in
  if n = 0 then
    Printf.sprintf "<svg class=\"sparkline\" width=\"%d\" height=\"%d\"></svg>"
      width height
  else begin
    let vmax = List.fold_left Float.max 0. values in
    let bw = max 1 ((width / n) - 1) in
    let b = Buffer.create 256 in
    Buffer.add_string b
      (Printf.sprintf "<svg class=\"sparkline\" width=\"%d\" height=\"%d\">"
         width height);
    List.iteri
      (fun i v ->
        let h =
          if vmax <= 0. then 1
          else max 1 (int_of_float (v /. vmax *. float_of_int (height - 1)))
        in
        Buffer.add_string b
          (Printf.sprintf
             "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\"></rect>"
             (i * (bw + 1))
             (height - h) bw h))
      values;
    Buffer.add_string b "</svg>";
    Buffer.contents b
  end

let table ?id ~header rows =
  let b = Buffer.create 1024 in
  (match id with
  | Some id -> Buffer.add_string b (Printf.sprintf "<table id=%S>" id)
  | None -> Buffer.add_string b "<table>");
  Buffer.add_string b "<thead><tr>";
  List.iter
    (fun h -> Buffer.add_string b (Printf.sprintf "<th>%s</th>" h))
    header;
  Buffer.add_string b "</tr></thead><tbody>";
  List.iter
    (fun row ->
      Buffer.add_string b "<tr>";
      List.iter
        (fun cell -> Buffer.add_string b (Printf.sprintf "<td>%s</td>" cell))
        row;
      Buffer.add_string b "</tr>\n")
    rows;
  Buffer.add_string b "</tbody></table>";
  Buffer.contents b

let section title body =
  Printf.sprintf "<section><h2>%s</h2>\n%s</section>\n" (esc title) body

(* "123/456" or "123" from Rat.to_string. *)
let rat_to_float s =
  match String.index_opt s '/' with
  | None -> float_of_string_opt s
  | Some i -> (
      let a = String.sub s 0 i in
      let d = String.sub s (i + 1) (String.length s - i - 1) in
      match (float_of_string_opt a, float_of_string_opt d) with
      | Some a, Some d when d <> 0. -> Some (a /. d)
      | _ -> None)

let style =
  {|body{font-family:system-ui,sans-serif;margin:2em auto;max-width:72em;
padding:0 1em;color:#1c2733}
h1{border-bottom:2px solid #2a6;padding-bottom:.3em}
h2{margin-top:1.6em;color:#254}
table{border-collapse:collapse;margin:.5em 0}
th,td{border:1px solid #cdd5dc;padding:.25em .6em;text-align:left;
font-variant-numeric:tabular-nums}
th{background:#eef3f6}
tr:nth-child(even) td{background:#f7fafb}
svg.sparkline rect{fill:#2a6}
svg.sharebar rect.bg{fill:#e4ebef}
svg.sharebar rect.fg{fill:#47b}
.cards{display:flex;gap:1em;flex-wrap:wrap}
.card{border:1px solid #cdd5dc;border-radius:.4em;padding:.6em 1em;
min-width:9em;background:#f7fafb}
.card b{display:block;font-size:1.5em}
.muted{color:#66727d}|}

let share_bar frac =
  let w = 120 and h = 10 in
  let fw = max 1 (int_of_float (frac *. float_of_int w)) in
  Printf.sprintf
    "<svg class=\"sharebar\" width=\"%d\" height=\"%d\"><rect class=\"bg\" \
     x=\"0\" y=\"0\" width=\"%d\" height=\"%d\"></rect><rect class=\"fg\" \
     x=\"0\" y=\"0\" width=\"%d\" height=\"%d\"></rect></svg>"
    w h w h fw h

let card label value =
  Printf.sprintf "<div class=\"card\"><b>%s</b>%s</div>" (esc value)
    (esc label)

let phase_table registries =
  let merged =
    merged_assoc merge_timer (List.concat_map (fun r -> r.r_timers) registries)
  in
  let grand_total =
    List.fold_left (fun acc (_, t) -> acc +. t.tm_total) 0. merged
  in
  let rows =
    merged
    |> List.sort (fun (_, a) (_, b) -> compare b.tm_total a.tm_total)
    |> List.map (fun (k, t) ->
           let stddev =
             if t.tm_count = 0 then 0.
             else sqrt (t.tm_m2 /. float_of_int t.tm_count)
           in
           [
             esc k;
             string_of_int t.tm_count;
             fsec t.tm_total;
             fsec (if t.tm_count = 0 then 0. else t.tm_total /. float_of_int t.tm_count);
             fsec stddev;
             fsec t.tm_min;
             fsec t.tm_max;
             share_bar
               (if grand_total <= 0. then 0. else t.tm_total /. grand_total);
           ])
  in
  if rows = [] then "<p class=\"muted\">no timers recorded</p>"
  else
    table ~id:"phase-table"
      ~header:
        [
          "phase"; "count"; "total s"; "mean s"; "stddev s"; "min s"; "max s";
          "share";
        ]
      rows

let counters_table registries =
  let merged =
    merged_assoc ( + ) (List.concat_map (fun r -> r.r_counters) registries)
  in
  if merged = [] then "<p class=\"muted\">no counters recorded</p>"
  else
    table ~id:"counters"
      ~header:[ "counter"; "value" ]
      (List.map (fun (k, v) -> [ esc k; string_of_int v ]) merged)

let gauges_table registries =
  let multi = List.length registries > 1 in
  let rows =
    List.concat_map
      (fun r ->
        List.map
          (fun (k, v) -> [ esc (labelled multi r.r_label k); fnum v ])
          r.r_gauges)
      registries
  in
  if rows = [] then "<p class=\"muted\">no gauges recorded</p>"
  else table ~id:"gauges" ~header:[ "gauge"; "value" ] rows

let hists_table registries =
  let multi = List.length registries > 1 in
  let rows =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun (k, h) ->
            if h.hs_count = 0 then None
            else
              Some
                [
                  esc (labelled multi r.r_label k);
                  string_of_int h.hs_count;
                  fnum h.hs_p50;
                  fnum h.hs_p90;
                  fnum h.hs_p99;
                  fnum h.hs_max;
                  sparkline [ h.hs_p50; h.hs_p90; h.hs_p99; h.hs_max ];
                ])
          r.r_hists)
      registries
  in
  if rows = [] then "<p class=\"muted\">no histogram samples recorded</p>"
  else
    table ~id:"histograms"
      ~header:[ "histogram"; "count"; "p50"; "p90"; "p99"; "max"; "quantiles" ]
      rows

(* Budget trips: the budget.* counters plus journal partial outcomes. *)
let budget_section registries journals =
  let counters =
    merged_assoc ( + ) (List.concat_map (fun r -> r.r_counters) registries)
  in
  let budget_counters =
    List.filter
      (fun (k, v) ->
        v > 0
        && String.length k > 7
        && String.sub k 0 7 = "budget.")
      counters
  in
  let partial_reasons =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun j ->
        List.iter
          (fun c ->
            if c.c_status = "partial" then begin
              let r = Option.value ~default:"unknown" c.c_reason in
              Hashtbl.replace tbl r
                (1 + Option.value ~default:0 (Hashtbl.find_opt tbl r))
            end)
          j.j_cases)
      journals;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare
  in
  let b = Buffer.create 256 in
  if budget_counters = [] && partial_reasons = [] then
    Buffer.add_string b
      "<p class=\"muted\">no budget trips or partial outcomes</p>"
  else begin
    if budget_counters <> [] then
      Buffer.add_string b
        (table ~id:"budget-trips"
           ~header:[ "budget counter"; "value" ]
           (List.map
              (fun (k, v) -> [ esc k; string_of_int v ])
              budget_counters));
    if partial_reasons <> [] then
      Buffer.add_string b
        (table ~id:"partial-outcomes"
           ~header:[ "partial reason (journal)"; "cases" ]
           (List.map
              (fun (k, v) -> [ esc k; string_of_int v ])
              partial_reasons))
  end;
  Buffer.contents b

let events_section registries =
  let kinds =
    merged_assoc ( + ) (List.concat_map (fun r -> r.r_event_kinds) registries)
  in
  let dropped =
    merged_assoc ( + ) (List.concat_map (fun r -> r.r_dropped) registries)
  in
  let lookup_dropped k =
    Option.value ~default:0 (List.assoc_opt k dropped)
  in
  let all_kinds =
    merged_assoc ( + )
      (List.map (fun (k, _) -> (k, 0)) dropped @ kinds)
  in
  if all_kinds = [] then "<p class=\"muted\">no events recorded</p>"
  else
    table ~id:"events"
      ~header:[ "event kind"; "stored"; "dropped" ]
      (List.map
         (fun (k, stored) ->
           [ esc k; string_of_int stored; string_of_int (lookup_dropped k) ])
         all_kinds)

let journal_section j =
  let count st =
    List.length (List.filter (fun c -> c.c_status = st) j.j_cases)
  in
  let b = Buffer.create 1024 in
  Buffer.add_string b "<div class=\"cards\">";
  List.iter
    (fun st ->
      Buffer.add_string b (card st (string_of_int (count st))))
    [ "allocated"; "partial"; "failed"; "error" ];
  Buffer.add_string b (card "total cases" (string_of_int (List.length j.j_cases)));
  Buffer.add_string b "</div>\n";
  let throughputs =
    List.filter_map
      (fun c ->
        match (c.c_status, c.c_throughput) with
        | "allocated", Some t -> rat_to_float t
        | _ -> None)
      j.j_cases
  in
  if throughputs <> [] then
    Buffer.add_string b
      (Printf.sprintf
         "<p>allocated throughput per case (journal order): %s</p>\n"
         (sparkline ~width:240 throughputs));
  let problem_cases =
    List.filter (fun c -> c.c_status <> "allocated") j.j_cases
  in
  if problem_cases <> [] then
    Buffer.add_string b
      (table
         ~header:[ "case"; "status"; "detail" ]
         (List.map
            (fun c ->
              let detail =
                match (c.c_reason, c.c_message) with
                | Some r, _ -> r
                | None, Some m -> m
                | None, None -> ""
              in
              [ esc c.c_case; esc c.c_status; esc detail ])
            problem_cases));
  Buffer.contents b

let traces_section traces =
  if traces = [] then "<p class=\"muted\">no trace files linked</p>"
  else
    "<ul>"
    ^ String.concat ""
        (List.map
           (fun t ->
             Printf.sprintf
               "<li><a href=%S>%s</a> <span class=\"muted\">(open in \
                Perfetto / chrome://tracing)</span></li>"
               (esc t) (esc t))
           traces)
    ^ "</ul>"

let html ?(title = "sdfalloc run report") ~registries ~journals ~traces () =
  let b = Buffer.create 16_384 in
  Buffer.add_string b "<!DOCTYPE html>\n<html lang=\"en\"><head>\n";
  Buffer.add_string b "<meta charset=\"utf-8\">\n";
  Buffer.add_string b (Printf.sprintf "<title>%s</title>\n" (esc title));
  Buffer.add_string b (Printf.sprintf "<style>%s</style>\n" style);
  Buffer.add_string b "</head><body>\n";
  Buffer.add_string b (Printf.sprintf "<h1>%s</h1>\n" (esc title));
  let total_cases =
    List.fold_left (fun acc j -> acc + List.length j.j_cases) 0 journals
  in
  Buffer.add_string b "<div class=\"cards\">";
  Buffer.add_string b
    (card "metrics registries" (string_of_int (List.length registries)));
  Buffer.add_string b (card "journals" (string_of_int (List.length journals)));
  Buffer.add_string b (card "journal cases" (string_of_int total_cases));
  Buffer.add_string b (card "traces" (string_of_int (List.length traces)));
  Buffer.add_string b "</div>\n";
  if registries <> [] then begin
    Buffer.add_string b (section "Per-phase timing" (phase_table registries));
    Buffer.add_string b (section "Counters" (counters_table registries));
    Buffer.add_string b (section "Gauges" (gauges_table registries));
    Buffer.add_string b (section "Histograms" (hists_table registries))
  end;
  Buffer.add_string b
    (section "Budget trips & partial outcomes"
       (budget_section registries journals));
  if registries <> [] then
    Buffer.add_string b (section "Events" (events_section registries));
  List.iter
    (fun j ->
      Buffer.add_string b
        (section (Printf.sprintf "Batch journal: %s" j.j_label)
           (journal_section j)))
    journals;
  Buffer.add_string b (section "Timeline traces" (traces_section traces));
  Buffer.add_string b "</body></html>\n";
  Buffer.contents b
