(** Index of every experiment: id → runner.  The CLI and the tests
    iterate this. *)

type entry = {
  e_id : string;
  e_title : string;
  e_run : Sim.Ctx.t -> Table.t;
      (** Runs the experiment on the given context: every engine it
          builds records into the context's trace and registry.  The
          context's domain count is a parallelism budget, never a
          result parameter: the table and everything the context
          records are byte-identical at every value (E13–E15 and PAR
          fan their independent rows or shards out over that many
          OCaml domains). *)
}

val all : entry list

val find : string -> entry option
(** Case-insensitive lookup by id ("e1", "E3b", ...). *)
