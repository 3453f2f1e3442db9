"""Test-only reference: the isolated §8 trial, written out longhand.

The harness drives every trial through ``run_lane_on`` — an isolated
trial is a lane of width one. This module keeps the straight-line
create → write → read body that lanes replaced, so tests can check the
lane machinery (width one, wider lanes, and the executor's fallback
ladder) against an independent statement of what one trial observes:
its own ``CREATE TABLE``, a single-row ``INSERT`` or one-row frame, one
``SELECT *``, and the same span tree under a tracer.
"""

from __future__ import annotations

from repro.common.result import QueryResult
from repro.common.schema import Field, Schema
from repro.crosstest.harness import (
    NO_ROWS,
    TRIAL_TABLE,
    Deployment,
    Outcome,
    Trial,
)
from repro.crosstest.plans import Interface, Plan
from repro.crosstest.values import TestInput
from repro.tracing.core import span as trace_span


def reference_trial(
    deployment: Deployment, plan: Plan, fmt: str, test_input: TestInput
) -> Trial:
    """One isolated trial on ``deployment``, without the lane layer."""
    table = TRIAL_TABLE
    with trace_span(
        "crosstest.trial", system="crosstest", operation="trial"
    ) as root:
        if root is not None:
            root.attributes.update(
                plan=plan.name,
                writer=plan.writer,
                reader=plan.reader,
                fmt=fmt,
                input_id=test_input.input_id,
                type=test_input.type_text,
            )
        try:
            with trace_span(
                "crosstest.create", system="crosstest", operation="create"
            ):
                deployment.create_table(plan.writer, table, test_input, fmt)
        except Exception as exc:  # noqa: BLE001 - any failure is data
            return Trial(plan, fmt, test_input, _error("create", exc))
        try:
            with trace_span(
                "crosstest.write", system="crosstest", operation="write"
            ):
                _write_one(deployment, plan.writer, table, test_input, fmt)
        except Exception as exc:  # noqa: BLE001
            return Trial(plan, fmt, test_input, _error("write", exc))
        try:
            with trace_span(
                "crosstest.read", system="crosstest", operation="read"
            ):
                result = deployment.read(plan.reader, table)
        except Exception as exc:  # noqa: BLE001
            return Trial(plan, fmt, test_input, _error("read", exc))
        return Trial(plan, fmt, test_input, _ok(result))


def reference_outcomes(
    plan: Plan,
    fmt: str,
    inputs,
    conf_overrides: dict[str, object] | None = None,
) -> list[Outcome]:
    """Each input's reference outcome, on a fresh deployment per input."""
    return [
        reference_trial(
            Deployment(dict(conf_overrides or {})), plan, fmt, test_input
        ).outcome
        for test_input in inputs
    ]


def _write_one(
    deployment: Deployment,
    interface: str,
    table: str,
    test_input: TestInput,
    fmt: str,
) -> None:
    if interface == Interface.DATAFRAME:
        schema = Schema(
            (Field("c", test_input.column_type),), case_sensitive=True
        )
        frame = deployment.spark.create_dataframe(
            [(test_input.py_value,)], schema
        )
        frame.write.format(fmt).save_as_table(table)
        return
    dml = f"INSERT INTO {table} VALUES ({test_input.sql_literal})"
    if interface == Interface.SPARKSQL:
        deployment.spark.sql(dml)
    elif interface == Interface.HIVEQL:
        deployment.hive.execute(dml)
    else:
        raise ValueError(f"unknown interface {interface!r}")


def _error(stage: str, exc: Exception) -> Outcome:
    return Outcome(
        status="error",
        stage=stage,
        error_type=type(exc).__name__,
        error_message=str(exc),
    )


def _ok(result: QueryResult) -> Outcome:
    if len(result.schema) > 0:
        column = result.schema.fields[0]
        value_type = column.data_type.simple_string()
        name = column.name
    else:
        value_type = ""
        name = ""
    value = result.rows[0][0] if result.rows else NO_ROWS
    return Outcome(
        status="ok",
        value=value,
        value_type=value_type,
        column_name=name,
        row_count=len(result.rows),
        warnings=result.warnings,
    )
