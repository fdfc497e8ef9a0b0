(** Structural validators for the JSON documents the repository emits.

    Each validator walks a parsed {!Json.t} and returns the list of
    problems found — missing fields, wrong types, malformed nested
    records — with one human-readable string per problem. An empty list
    means the document conforms. The test suite and the emitters
    themselves call these, so a report that drifts from its documented
    shape fails loudly at the producer, not in some downstream
    consumer. *)

val snapshot : Json.t -> string list
(** Validates a {!Snapshot.to_json} document
    (schema ["liquid-obs-snapshot/1"]): every {!Snapshot.sections}
    entry must be an object holding each of its registered counters as
    an int (a [null] section is an error: every machine has every
    unit). *)

val fuzz_report : Json.t -> string list
(** Validates a fuzzing-campaign report
    (schema ["liquid-fuzz-report/1"]): case and fault-cell accounting,
    the abort-class, fault-kind and divergence count objects, the
    trip-count histogram, and the per-case failure list. *)
