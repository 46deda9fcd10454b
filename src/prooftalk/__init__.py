"""Structured mathematical argumentation: Toulmin layouts, typed
dialogues, commitment-store replay and shift analysis."""
