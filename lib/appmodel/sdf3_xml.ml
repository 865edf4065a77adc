module Sdfg = Sdf.Sdfg
module Rat = Sdf.Rat
module Xml = Sdf.Xml
module Tile = Platform.Tile
module Archgraph = Platform.Archgraph

exception Error of string

let error fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

let int_attr node name =
  match Xml.attr_opt node name with
  | Some v -> (
      match int_of_string_opt v with
      | Some i -> i
      | None -> error "attribute %s=%S is not an integer" name v)
  | None -> error "missing attribute %s on <%s>" name (Xml.tag node)

let int_attr_default node name default =
  match Xml.attr_opt node name with
  | None -> default
  | Some v -> (
      match int_of_string_opt v with
      | Some i -> i
      | None -> error "attribute %s=%S is not an integer" name v)

let str_attr node name =
  match Xml.attr_opt node name with
  | Some v -> v
  | None -> error "missing attribute %s on <%s>" name (Xml.tag node)

let rat_attr node name =
  let v = str_attr node name in
  match String.split_on_char '/' v with
  | [ n ] -> (
      match int_of_string_opt n with
      | Some n -> Rat.of_int n
      | None -> error "attribute %s=%S is not a rational" name v)
  | [ n; d ] -> (
      match (int_of_string_opt n, int_of_string_opt d) with
      | Some n, Some d when d <> 0 -> Rat.make n d
      | _ -> error "attribute %s=%S is not a rational" name v)
  | _ -> error "attribute %s=%S is not a rational" name v

(* --------------------------- application --------------------------- *)

let app_to_xml (app : Appgraph.t) =
  let g = app.Appgraph.graph in
  let out_port ci = Printf.sprintf "out_%s" (Sdfg.channel_name g ci) in
  let in_port ci = Printf.sprintf "in_%s" (Sdfg.channel_name g ci) in
  let actor_elem a =
    let ports =
      List.map
        (fun ci ->
          let c = Sdfg.channel g ci in
          Xml.Element
            ( "port",
              [
                ("name", out_port ci); ("type", "out");
                ("rate", string_of_int c.Sdfg.prod);
              ],
              [] ))
        (Array.to_list (Sdfg.out_channels g a))
      @ List.map
          (fun ci ->
            let c = Sdfg.channel g ci in
            Xml.Element
              ( "port",
                [
                  ("name", in_port ci); ("type", "in");
                  ("rate", string_of_int c.Sdfg.cons);
                ],
                [] ))
          (Array.to_list (Sdfg.in_channels g a))
    in
    Xml.Element ("actor", [ ("name", Sdfg.actor_name g a) ], ports)
  in
  let channel_elem (c : Sdfg.channel) =
    let attrs =
      [
        ("name", c.Sdfg.c_name);
        ("srcActor", Sdfg.actor_name g c.Sdfg.src);
        ("srcPort", out_port c.Sdfg.c_idx);
        ("dstActor", Sdfg.actor_name g c.Sdfg.dst);
        ("dstPort", in_port c.Sdfg.c_idx);
      ]
      @ if c.Sdfg.tokens > 0 then [ ("initialTokens", string_of_int c.Sdfg.tokens) ] else []
    in
    Xml.Element ("channel", attrs, [])
  in
  let sdf =
    Xml.Element
      ( "sdf",
        [ ("name", app.Appgraph.app_name) ],
        List.init (Sdfg.num_actors g) actor_elem
        @ Array.to_list (Array.map channel_elem (Sdfg.channels g)) )
  in
  let actor_props a =
    let processors =
      List.map
        (fun (pt, r) ->
          Xml.Element
            ( "processor",
              [ ("type", pt) ],
              [
                Xml.Element
                  ("executionTime", [ ("time", string_of_int r.Appgraph.exec_time) ], []);
                Xml.Element ("memory", [ ("stateSize", string_of_int r.Appgraph.memory) ], []);
              ] ))
        app.Appgraph.reqs.(a)
    in
    Xml.Element ("actorProperties", [ ("actor", Sdfg.actor_name g a) ], processors)
  in
  let channel_props ci (cr : Appgraph.channel_req) =
    Xml.Element
      ( "channelProperties",
        [
          ("channel", Sdfg.channel_name g ci);
          ("tokenSize", string_of_int cr.Appgraph.token_size);
          ("bufferTile", string_of_int cr.Appgraph.alpha_tile);
          ("bufferSrc", string_of_int cr.Appgraph.alpha_src);
          ("bufferDst", string_of_int cr.Appgraph.alpha_dst);
          ("bandwidth", string_of_int cr.Appgraph.bandwidth);
        ],
        [] )
  in
  let graph_props =
    Xml.Element
      ( "graphProperties",
        [],
        [
          Xml.Element
            ( "timeConstraints",
              [
                ("throughput", Rat.to_string app.Appgraph.lambda);
                ("outputActor", Sdfg.actor_name g app.Appgraph.output_actor);
              ],
              [] );
        ] )
  in
  let properties =
    Xml.Element
      ( "sdfProperties",
        [],
        List.init (Sdfg.num_actors g) actor_props
        @ Array.to_list (Array.mapi channel_props app.Appgraph.creqs)
        @ [ graph_props ] )
  in
  Xml.Element
    ( "sdf3",
      [ ("type", "sdf"); ("version", "1.0") ],
      [
        Xml.Element
          ("applicationGraph", [ ("name", app.Appgraph.app_name) ], [ sdf; properties ]);
      ] )

let app_of_xml root =
  if Xml.tag root <> "sdf3" then error "expected <sdf3> root, got <%s>" (Xml.tag root);
  let ag =
    match Xml.child_opt root "applicationGraph" with
    | Some ag -> ag
    | None -> error "missing <applicationGraph>"
  in
  let sdf =
    match Xml.child_opt ag "sdf" with
    | Some s -> s
    | None -> error "missing <sdf>"
  in
  let b = Sdfg.Builder.create () in
  let actor_ids = Hashtbl.create 16 in
  (* Ports carry the rates; remember them per (actor, port name). *)
  let port_rate = Hashtbl.create 64 in
  List.iter
    (fun actor ->
      let name = str_attr actor "name" in
      if Hashtbl.mem actor_ids name then error "duplicate actor %S" name;
      Hashtbl.add actor_ids name (Sdfg.Builder.add_actor b name);
      List.iter
        (fun port ->
          Hashtbl.replace port_rate (name, str_attr port "name") (int_attr port "rate"))
        (Xml.children actor "port"))
    (Xml.children sdf "actor");
  let actor_id node attr_name =
    let name = str_attr node attr_name in
    match Hashtbl.find_opt actor_ids name with
    | Some i -> i
    | None -> error "unknown actor %S" name
  in
  let channel_ids = Hashtbl.create 16 in
  List.iter
    (fun ch ->
      let name = str_attr ch "name" in
      let src_name = str_attr ch "srcActor" and dst_name = str_attr ch "dstActor" in
      let rate who actor port =
        match Hashtbl.find_opt port_rate (actor, port) with
        | Some r -> r
        | None -> error "channel %S references unknown %s port %S" name who port
      in
      let prod = rate "source" src_name (str_attr ch "srcPort") in
      let cons = rate "destination" dst_name (str_attr ch "dstPort") in
      let idx =
        Sdfg.Builder.add_channel b ~name
          ~tokens:(int_attr_default ch "initialTokens" 0)
          ~src:(actor_id ch "srcActor") ~dst:(actor_id ch "dstActor") ~prod
          ~cons ()
      in
      Hashtbl.add channel_ids name idx)
    (Xml.children sdf "channel");
  let graph = Sdfg.Builder.build b in
  let props =
    match Xml.child_opt ag "sdfProperties" with
    | Some p -> p
    | None -> error "missing <sdfProperties>"
  in
  let reqs = Array.make (Sdfg.num_actors graph) [] in
  (* Every actor names its processor types again; keep one string per
     type, so a parsed application does not hold a copy per actor. *)
  let proc_types = Hashtbl.create 8 in
  let proc_type s =
    match Hashtbl.find_opt proc_types s with
    | Some shared -> shared
    | None ->
        Hashtbl.add proc_types s s;
        s
  in
  List.iter
    (fun ap ->
      let a = actor_id ap "actor" in
      let options =
        List.map
          (fun proc ->
            let tau = int_attr (Xml.child proc "executionTime") "time" in
            let mem =
              match Xml.child_opt proc "memory" with
              | Some m -> int_attr m "stateSize"
              | None -> 0
            in
            ( proc_type (str_attr proc "type"),
              Appgraph.{ exec_time = tau; memory = mem } ))
          (Xml.children ap "processor")
      in
      reqs.(a) <- options)
    (Xml.children props "actorProperties");
  let creqs =
    Array.make (Sdfg.num_channels graph)
      Appgraph.
        { token_size = 0; alpha_tile = 0; alpha_src = 0; alpha_dst = 0;
          bandwidth = 0 }
  in
  let creq_seen = Array.make (Sdfg.num_channels graph) false in
  List.iter
    (fun cp ->
      let name = str_attr cp "channel" in
      let ci =
        match Hashtbl.find_opt channel_ids name with
        | Some i -> i
        | None -> error "properties for unknown channel %S" name
      in
      creq_seen.(ci) <- true;
      creqs.(ci) <-
        Appgraph.
          {
            token_size = int_attr cp "tokenSize";
            alpha_tile = int_attr cp "bufferTile";
            alpha_src = int_attr cp "bufferSrc";
            alpha_dst = int_attr cp "bufferDst";
            bandwidth = int_attr cp "bandwidth";
          })
    (Xml.children props "channelProperties");
  Array.iteri
    (fun ci seen ->
      if not seen then
        error "missing <channelProperties> for channel %S"
          (Sdfg.channel_name graph ci))
    creq_seen;
  let tc =
    match Xml.child_opt props "graphProperties" with
    | Some gp -> (
        match Xml.child_opt gp "timeConstraints" with
        | Some tc -> tc
        | None -> error "missing <timeConstraints>")
    | None -> error "missing <graphProperties>"
  in
  let lambda = rat_attr tc "throughput" in
  let output_actor =
    match Hashtbl.find_opt actor_ids (str_attr tc "outputActor") with
    | Some i -> i
    | None -> error "unknown output actor"
  in
  Appgraph.make ~name:(str_attr ag "name") ~graph ~reqs ~creqs ~lambda
    ~output_actor

let app_to_string app = Xml.to_string (app_to_xml app)
let app_of_string s = app_of_xml (Xml.parse s)

let write_app_file path app =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (app_to_string app))

let read_app_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> app_of_string (In_channel.input_all ic))

(* --------------------------- architecture -------------------------- *)

let arch_to_xml ~name arch =
  let tile_elem (t : Tile.t) =
    Xml.Element
      ( "tile",
        [
          ("name", t.Tile.t_name);
          ("processorType", t.Tile.proc_type);
          ("timewheel", string_of_int t.Tile.wheel);
          ("memory", string_of_int t.Tile.mem);
          ("connections", string_of_int t.Tile.max_conns);
          ("inBandwidth", string_of_int t.Tile.in_bw);
          ("outBandwidth", string_of_int t.Tile.out_bw);
          ("occupied", string_of_int t.Tile.occupied);
        ],
        [] )
  in
  let conn_elem (c : Archgraph.connection) =
    Xml.Element
      ( "connection",
        [
          ("name", Printf.sprintf "cn-%d" c.Archgraph.k_idx);
          ("srcTile", (Archgraph.tile arch c.Archgraph.from_tile).Tile.t_name);
          ("dstTile", (Archgraph.tile arch c.Archgraph.to_tile).Tile.t_name);
          ("latency", string_of_int c.Archgraph.latency);
        ],
        [] )
  in
  Xml.Element
    ( "sdf3",
      [ ("type", "sdf"); ("version", "1.0") ],
      [
        Xml.Element
          ( "architectureGraph",
            [ ("name", name) ],
            Array.to_list (Array.map tile_elem (Archgraph.tiles arch))
            @ Array.to_list (Array.map conn_elem (Archgraph.connections arch)) );
      ] )

let arch_of_xml root =
  if Xml.tag root <> "sdf3" then error "expected <sdf3> root";
  let ag =
    match Xml.child_opt root "architectureGraph" with
    | Some ag -> ag
    | None -> error "missing <architectureGraph>"
  in
  let tiles =
    List.mapi
      (fun i t ->
        Tile.make ~idx:i ~name:(str_attr t "name")
          ~proc_type:(str_attr t "processorType")
          ~wheel:(int_attr t "timewheel") ~mem:(int_attr t "memory")
          ~max_conns:(int_attr t "connections")
          ~in_bw:(int_attr t "inBandwidth") ~out_bw:(int_attr t "outBandwidth")
          ~occupied:(int_attr_default t "occupied" 0) ())
      (Xml.children ag "tile")
    |> Array.of_list
  in
  let tile_index name =
    match Array.find_opt (fun t -> t.Tile.t_name = name) tiles with
    | Some t -> t.Tile.t_idx
    | None -> error "connection references unknown tile %S" name
  in
  let conns =
    List.map
      (fun c ->
        {
          Archgraph.k_idx = 0;
          from_tile = tile_index (str_attr c "srcTile");
          to_tile = tile_index (str_attr c "dstTile");
          latency = int_attr c "latency";
        })
      (Xml.children ag "connection")
  in
  (str_attr ag "name", Archgraph.make tiles conns)

let arch_to_string ~name arch = Xml.to_string (arch_to_xml ~name arch)
let arch_of_string s = arch_of_xml (Xml.parse s)

let write_arch_file path ~name arch =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (arch_to_string ~name arch))

let read_arch_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> arch_of_string (In_channel.input_all ic))
