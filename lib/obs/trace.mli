(** Typed per-round trace events emitted by the simulation engines.

    One event per observable engine action, in engine-loop order.  For
    each executed round the engines emit

    + [Round_start] — the round counter advanced;
    + [Graph_change] — the adversary fixed the round graph; [added]
      and [removed] are [|E⁺_r|] and [|E⁻_r|] versus the previous
      round's graph, so summing [added] over a trace reproduces the
      paper's [TC(E)] (Definition 1.2);
    + one [Send] per {e charged} message — a local broadcast is one
      event with [dst = None] (Definition 1.1 charges it once), a
      unicast message to each distinct neighbor is one event each;
      summing [Send] events reproduces the ledger's message total;
    + [Progress] — end-of-round global progress: [progress] is the sum
      over nodes of tokens known, [learnings] the cumulative token
      learnings (Definition 1.4) since the run began.

    A [Progress] event with [round = 0] reports the initial progress
    before any communication.  [Phase] marks a named algorithm phase
    boundary (e.g. Algorithm 2's random-walk → multi-source hand-off);
    [Run_end] closes the run with its headline totals.

    [Fault] records one fault-layer action (emitted only when a fault
    plan is active): [kind] is ["drop"], ["dup"], ["delay"], ["crash"],
    ["restart"], or ["retransmit"].  For message faults [node] is the
    sender, [dst] the receiver, and [cls] the message class; for node
    faults [node] is the affected node and [dst]/[cls] are absent.
    Summing [drop]-kind events gives the fault ledger's drop count.

    Node ids are plain ints (they are [Dynet.Node_id.t] densely
    numbered [0..n-1]); message classes are their
    [Engine.Msg_class.to_string] names.  Both are kept as primitives so
    this library sits below the engine in the dependency order. *)

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

val to_json : event -> Json.t
(** One flat object per event, discriminated by an ["ev"] field; [Send]
    omits ["dst"] for broadcasts.  This is the JSONL schema documented
    in README.md. *)

val pp : Format.formatter -> event -> unit
(** Debug rendering (the JSON line). *)
