type event =
  | Round_start of { round : int }
  | Send of { round : int; src : int; dst : int option; cls : string }
  | Graph_change of { round : int; added : int; removed : int }
  | Progress of { round : int; progress : int; learnings : int }
  | Phase of { name : string; round : int }
  | Fault of {
      round : int;
      kind : string;
      node : int;
      dst : int option;
      cls : string option;
    }
  | Run_end of { rounds : int; completed : bool; messages : int }

let to_json = function
  | Round_start { round } ->
      Json.Obj [ ("ev", Json.String "round_start"); ("round", Json.Int round) ]
  | Send { round; src; dst; cls } ->
      let base =
        [ ("ev", Json.String "send"); ("round", Json.Int round);
          ("src", Json.Int src) ]
      in
      let dst_field =
        match dst with None -> [] | Some d -> [ ("dst", Json.Int d) ]
      in
      Json.Obj (base @ dst_field @ [ ("cls", Json.String cls) ])
  | Graph_change { round; added; removed } ->
      Json.Obj
        [ ("ev", Json.String "graph_change"); ("round", Json.Int round);
          ("added", Json.Int added); ("removed", Json.Int removed) ]
  | Progress { round; progress; learnings } ->
      Json.Obj
        [ ("ev", Json.String "progress"); ("round", Json.Int round);
          ("progress", Json.Int progress); ("learnings", Json.Int learnings) ]
  | Phase { name; round } ->
      Json.Obj
        [ ("ev", Json.String "phase"); ("name", Json.String name);
          ("round", Json.Int round) ]
  | Fault { round; kind; node; dst; cls } ->
      let dst_field =
        match dst with None -> [] | Some d -> [ ("dst", Json.Int d) ]
      in
      let cls_field =
        match cls with None -> [] | Some c -> [ ("cls", Json.String c) ]
      in
      Json.Obj
        ([ ("ev", Json.String "fault"); ("round", Json.Int round);
           ("kind", Json.String kind); ("node", Json.Int node) ]
        @ dst_field @ cls_field)
  | Run_end { rounds; completed; messages } ->
      Json.Obj
        [ ("ev", Json.String "run_end"); ("rounds", Json.Int rounds);
          ("completed", Json.Bool completed); ("messages", Json.Int messages) ]

let pp ppf ev = Format.pp_print_string ppf (Json.to_string (to_json ev))
