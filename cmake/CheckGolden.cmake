# Golden-output check: run a tool and fail when its output differs from
# a committed reference file. Invoked by the `config_doc_fresh`,
# `fig08_poset_golden` and `bench_snapshots_fresh` CTests as:
#   cmake -DTOOL=<binary> -DREFERENCE=<committed file>
#         "-DREGENERATE=<command that rewrites the reference>"
#         [-DOUTPUT=<file>] [-DARGS=<arguments>]
#         -P cmake/CheckGolden.cmake
# Without OUTPUT the tool's stdout is compared. With OUTPUT the tool is
# run as `<binary> <arguments> --json <file>` (the bench snapshot
# convention) and that file is compared instead. TOOL, REFERENCE,
# OUTPUT and ARGS may be lists of equal length; entry i of each forms
# one check. An ARGS entry is a space-separated argument string and may
# be empty.

# Keep empty list entries (an ARGS entry with no arguments).
cmake_policy(SET CMP0007 NEW)

list(LENGTH TOOL count)
math(EXPR last "${count} - 1")
foreach(i RANGE ${last})
  list(GET TOOL ${i} tool)
  list(GET REFERENCE ${i} reference)
  set(args "")
  if(DEFINED ARGS)
    list(GET ARGS ${i} argString)
    separate_arguments(args UNIX_COMMAND "${argString}")
  endif()
  if(DEFINED OUTPUT)
    list(GET OUTPUT ${i} output)
    file(REMOVE ${output})
    execute_process(COMMAND ${tool} ${args} --json ${output}
                    OUTPUT_QUIET
                    RESULT_VARIABLE rc)
  else()
    execute_process(COMMAND ${tool} ${args}
                    OUTPUT_VARIABLE generated
                    RESULT_VARIABLE rc)
  endif()
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${tool} failed with exit code ${rc}")
  endif()
  if(DEFINED OUTPUT)
    file(READ ${output} generated)
  endif()

  if(NOT EXISTS ${reference})
    message(FATAL_ERROR
            "${reference} does not exist; generate it with `${REGENERATE}`")
  endif()

  file(READ ${reference} committed)
  if(NOT generated STREQUAL committed)
    message(FATAL_ERROR
            "${reference} is stale: the output of ${tool} changed. Review "
            "the difference, regenerate with `${REGENERATE}` and commit "
            "the result.")
  endif()
endforeach()
