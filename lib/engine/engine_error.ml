open Dynet.Ops

exception Protocol_violation of string
exception Adversary_violation of string
exception Schedule_exhausted of { round : int; available : int }

let describe = function
  | Protocol_violation msg -> "protocol violation: " ^ msg
  | Adversary_violation msg -> "adversary violation: " ^ msg
  | Check.Check_failed msg -> "invariant check failed: " ^ msg
  | Schedule_exhausted { round; available } ->
      Printf.sprintf
        "trace exhausted: round %d requested but only %d rounds recorded" round
        available
  | e -> Printexc.to_string e

let check_graph ~round ~n g =
  if Dynet.Graph.n g <> n then
    raise
      (Adversary_violation
         (Printf.sprintf "round %d: graph has %d nodes, expected %d" round
            (Dynet.Graph.n g) n));
  if not (Dynet.Graph.is_connected g) then
    raise
      (Adversary_violation
         (Printf.sprintf "round %d: disconnected graph" round))
