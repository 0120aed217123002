# Fails unless ctdb_corpus_gen reproduces the checked-in binary seeds exactly.
#
#   cmake -DGEN=<ctdb_corpus_gen> -DOUT=<scratch dir> -DCORPUS=<corpus root>
#         -P check_corpus.cmake
#
# Round-trip tests and the fuzzers' fixed-point check cannot see a layout
# change made the same way in an encoder and its decoder: the old seeds still
# re-encode to themselves. The generator builds each message from its field
# values, so its bytes change with the layout.

file(REMOVE_RECURSE "${OUT}")
execute_process(COMMAND "${GEN}" "${OUT}" OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ctdb_corpus_gen failed: ${rc}")
endif()
foreach(dir protocol stream wal)
  file(GLOB want RELATIVE "${CORPUS}/${dir}" "${CORPUS}/${dir}/*")
  file(GLOB got RELATIVE "${OUT}/${dir}" "${OUT}/${dir}/*")
  list(SORT want)
  list(SORT got)
  if(NOT want STREQUAL got)
    message(FATAL_ERROR "corpus/${dir} lists [${want}], the generator [${got}]")
  endif()
  foreach(name ${want})
    execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                            "${CORPUS}/${dir}/${name}" "${OUT}/${dir}/${name}"
                    RESULT_VARIABLE differs)
    if(NOT differs EQUAL 0)
      message(FATAL_ERROR "corpus/${dir}/${name} differs from the generator's "
                          "output: run `ctdb_corpus_gen tools/fuzz/corpus` "
                          "after a deliberate format change")
    endif()
  endforeach()
endforeach()
