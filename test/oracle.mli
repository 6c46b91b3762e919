(** The protocol differential's oracle: frozen copies of
    {!Gossip.Single_source}, {!Gossip.Multi_source} and their
    [Edge_history] as they stood before the protocol layer was
    rewritten to O(deg) work per node-round.

    The engine differential cannot see a protocol rewrite, because
    {!Engine.Reference} runs the same protocol module as production.
    These copies keep their own state types and share only the
    message, token, instance and configuration types with production,
    so diffing production against them on one engine
    ({!Fuzz.Diff.execute_protocol}) checks the rewrite itself, byte for
    byte.

    [multi_source ~bug:true] is the diff's mutant: its request task
    ignores [arriving], so it re-requests tokens already in flight —
    the request de-dup regression the protocol differential must
    catch. *)

val single_source : Gossip.Single_source.config -> (module Fuzz.Diff.UNICAST)

val multi_source :
  bug:bool -> Gossip.Multi_source.source_order -> (module Fuzz.Diff.UNICAST)
