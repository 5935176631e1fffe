(** Generic lexical scanner and token cursor shared by the ARTEMIS
    language frontends (the property specification language, the
    intermediate state-machine language and the Mayfly edge syntax).

    It tokenizes identifiers, integer/float literals, duration literals
    ([100ms], [5min], [3s], [2sec], [10us]) and single/double-character
    punctuation, tracking line/column for error reporting.  Comments run
    from [//] to end of line. *)

type token =
  | Ident of string
  | Int of int
  | Float of float
  | Duration of Time.t
  | Energy of float
      (** microjoules; from [3.4mJ], [500uJ], [2J] literals (the
          Section 4.2.2 energy-awareness extension) *)
  | Punct of string  (** one of the punctuation strings given at creation *)
  | Eof

type located = { token : token; line : int; col : int }

exception Lex_error of string * int * int
(** message, line, column *)

val tokenize : puncts:string list -> string -> located list
(** [tokenize ~puncts src] scans the whole input.  [puncts] lists the
    punctuation/operator lexemes to recognize; longer lexemes take
    precedence (so ["->"] wins over ["-"]).
    @raise Lex_error on an unexpected character or malformed number. *)

val pp_token : Format.formatter -> token -> unit

(** {1 Token cursor}

    The cursor the three parsers (property specifications, the
    intermediate language and Mayfly-style edges) walk a token list
    with.  Every error raises {!Parse_error}; each parser reports it
    under its own prefix. *)

exception Parse_error of string * int * int
(** message, line, column *)

type stream

val stream : located list -> stream

val peek : stream -> located
(** The next token, not consumed.
    @raise Parse_error ["unexpected end of input"], located at the last
    consumed token, when the list has run dry (one from {!tokenize}
    never does: it ends with [Eof]). *)

val advance : stream -> unit
(** Consume the next token.  @raise Parse_error as {!peek}. *)

val fail_at : located -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Parse_error} at the token's position with a formatted
    message. *)

val expect_punct : stream -> string -> unit

val expect_ident : ?what:string -> stream -> string
(** [what] names the expected identifier in the error message (default
    ["an identifier"]). *)

val expect_int : stream -> int
