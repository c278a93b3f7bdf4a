# Golden-output check: run a tool and fail when its stdout differs from
# a committed reference file. Invoked by the `config_doc_fresh` and
# `fig08_poset_golden` CTests as:
#   cmake -DTOOL=<binary> -DREFERENCE=<committed file>
#         "-DREGENERATE=<command that rewrites the reference>"
#         -P cmake/CheckGolden.cmake

execute_process(COMMAND ${TOOL}
                OUTPUT_VARIABLE generated
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${TOOL} failed with exit code ${rc}")
endif()

if(NOT EXISTS ${REFERENCE})
  message(FATAL_ERROR
          "${REFERENCE} does not exist; generate it with `${REGENERATE}`")
endif()

file(READ ${REFERENCE} committed)
if(NOT generated STREQUAL committed)
  message(FATAL_ERROR
          "${REFERENCE} is stale: the output of ${TOOL} changed. Review "
          "the difference, regenerate with `${REGENERATE}` and commit "
          "the result.")
endif()
