open Dynet.Ops

type t = {
  n : int;
  seed : int option;
  provenance : string;
  mutable prev : Dynet.Graph.t;  (* last observed graph *)
  mutable filled : int;  (* rounds observed so far *)
  mutable deltas : Trace_io.delta list;  (* reverse round order *)
}

let create ~n ?seed ?(provenance = "recorded") () =
  {
    n;
    seed;
    provenance;
    prev = Dynet.Graph.empty ~n;
    filled = 0;
    deltas = [];
  }

let observe t ~round g =
  if Dynet.Graph.n g <> t.n then
    invalid_arg
      (Printf.sprintf "Record.observe: graph has %d nodes, recorder expects %d"
         (Dynet.Graph.n g) t.n);
  if round <> t.filled + 1 then
    invalid_arg
      (Printf.sprintf
         "Record.observe: round %d out of order (recorded %d rounds; rounds \
          are contiguous from 1)"
         round t.filled)
  else begin
    t.deltas <-
      Trace_io.delta_of_graphs ~prev:t.prev ~cur:g :: t.deltas;
    t.prev <- g;
    t.filled <- round
  end

let recorded_rounds t = t.filled

let to_trace t =
  Trace_io.make ?seed:t.seed ~provenance:t.provenance ~n:t.n
    (List.rev t.deltas)

let of_schedule ?seed ?(provenance = "oblivious") ~rounds schedule =
  if rounds < 1 then invalid_arg "Record.of_schedule: rounds < 1";
  let n = Adversary.Schedule.n schedule in
  let t = create ~n ?seed ~provenance () in
  for r = 1 to rounds do
    observe t ~round:r (Adversary.Schedule.get schedule r)
  done;
  to_trace t
