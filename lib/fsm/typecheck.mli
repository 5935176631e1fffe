(** Static well-formedness and type checking of intermediate-language
    machines (what the Xtext editor validates in the paper's tooling).

    Rules:
    - state and variable names are unique, the initial state and every
      transition target exist;
    - variable initializers match their declared type;
    - guards have type [bool];
    - assignments are type-preserving, to declared variables only;
    - arithmetic is homogeneous ([int op int], [float op float]; [+]/[-]
      also on [time]); [%] is int-only; comparisons need equal operand
      types; [&&]/[||] need [bool];
    - [t] has type [time], [path] [int], [data(_)] and [energyLevel]
      [float];
    - explicit [fail ... Path n] targets must be positive. *)

val check : Ast.machine -> (unit, string list) result

val check_exn : Ast.machine -> unit
(** @raise Failure with all messages joined by newlines. *)

