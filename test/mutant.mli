(** Deliberately broken protocol copies — the fuzzer's smoke test.

    A differential fuzzer that never fires proves nothing: the
    mutation smoke test substitutes a protocol copy with a seeded bug
    on one side of the comparison and asserts the campaign finds and
    shrinks it within a bounded budget.

    [flooding ~bug:false] is a faithful standalone copy of
    {!Gossip.Flooding} (a control: it must diff clean against the real
    protocol); [flooding ~bug:true] starts the phase clock at round 0
    instead of round 1, crossing every phase boundary one round early
    — an off-by-one in token selection that diverges only on runs
    long enough to complete a phase. *)

val flooding : bug:bool -> (module Fuzz.Diff.FLOODING)
