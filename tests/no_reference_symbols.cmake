# Fails when a shipped library defines a symbol of the naive references that
# live in tests/reference/ (or of a retired second path: the heat index's
# ordering flag, the local scheduler's engine switch): those implementations
# belong to the tests, and src/ carries one path per operation.
#
#   cmake -DNM=<nm> -DLIBS=<lib1>;<lib2>;... -P no_reference_symbols.cmake
if(NOT NM OR NOT LIBS)
  message(FATAL_ERROR "usage: cmake -DNM=<nm> -DLIBS=<libs> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()
set(forbidden
  "plan_naive"
  "plan_interference_naive"
  "sample_host_usage"
  "Trace::read_csv"
  "HeatIndex::ordered"
  "local::naive"
  "PlacementEngine")
set(found "")
foreach(lib IN LISTS LIBS)
  execute_process(COMMAND ${NM} -C ${lib}
                  OUTPUT_VARIABLE symbols
                  RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${NM} failed on ${lib} (exit ${status})")
  endif()
  if(symbols STREQUAL "")
    message(FATAL_ERROR "${NM} listed no symbols in ${lib}")
  endif()
  foreach(name IN LISTS forbidden)
    string(FIND "${symbols}" "${name}" at)
    if(NOT at EQUAL -1)
      list(APPEND found "${lib}: ${name}")
    endif()
  endforeach()
endforeach()
if(found)
  list(JOIN found "\n  " lines)
  message(FATAL_ERROR "reference symbols in shipped libraries:\n  ${lines}")
endif()
