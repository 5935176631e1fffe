(** Semantic validation of a property specification against an
    application (the checks Xtext's editor performs in the paper's
    tooling). *)

type issue = { where : string; message : string }

val check : Artemis_task.Task.app -> Ast.t -> (unit, issue list) result
(** Verifies that:
    - every task block names a task of the application;
    - every [dpTask] names a task of the application;
    - every [Path] index names a path, and the block's task is on it;
    - a task block appears at most once per task;
    - a property whose action escapes to a path ([restartPath],
      [skipPath]) carries an explicit [Path] when its task lies on
      several paths (the paper's path-merging rule, Section 3.2);
    - a [dpData] variable is exposed by the task's [monitored] list. *)

val issues_to_string : issue list -> string
