(* The run's metrics: a human-readable table on the way, then the one-line
   JSON result the benchmark contract asks for, always last on stdout. *)

type t = {
  name : string;
  unit_ : string;
  value : float;
  base : string;  (** what the number was computed from *)
}

let v ?(base = "") name unit_ value =
  { name; unit_; value = (if Float.is_finite value then value else 0.); base }

let print_table ~title metrics =
  Printf.printf "== %s\n" title;
  List.iter
    (fun m ->
      Printf.printf "  %-32s %14.6g %-6s %s\n" m.name m.value m.unit_ m.base)
    metrics;
  flush stdout

(* JSON numbers with every digit: %.17g round-trips a double. *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_line ~correct ~attempted ~failed metrics =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct attempted failed;
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "%S: {\"value\": %s, \"unit\": %S}" m.name (number m.value)
        m.unit_)
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b
